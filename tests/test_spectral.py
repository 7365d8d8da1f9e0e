import ast
import importlib
import math
import pathlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import todalab
from todalab import spectral
from todalab.errors import ConfigError, DataError, GridMismatchError, SolvabilityError
from todalab.spectral import (
    ScalarField,
    TorusGrid,
    VectorField,
    dirichlet_form,
    eval_at,
    eval_gradient_at,
    eval_modes_at,
    eval_modes_direct,
    eval_modes_stack_at,
    gradient0,
    laplacian0,
    load_field_values,
    product_dealiased,
    save_field,
    solve_poisson0,
    wrap_offset,
)

TWO_PI = 2.0 * math.pi


def field_from(grid, fn):
    X, Y = grid.mesh()
    return ScalarField(grid, fn(X, Y))


def rand_band_limited(grid, rng, kmax=6, amp=1.0):
    """Random real field with modes only in |kx|,|ky| <= kmax, zero mean."""
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
    return ScalarField(grid, amp * f.values / max(np.max(np.abs(f.values)), 1e-30))


def test_grid_validation():
    with pytest.raises(ConfigError):
        TorusGrid(8)
    with pytest.raises(ConfigError):
        TorusGrid(48)  # not a power of two
    g = TorusGrid(64)
    assert g.h == 1.0 / 64.0


def test_mode_value_roundtrip():
    grid = TorusGrid(64)
    rng = np.random.default_rng(0)
    f = ScalarField(grid, rng.normal(size=(64, 64)))
    back = ScalarField.from_modes(grid, f.modes)
    assert np.max(np.abs(back.values - f.values)) < 1e-12


@pytest.mark.parametrize("n", [16, 64, 256])
def test_modes_are_the_half_spectrum(n):
    # to_modes keeps the k_y >= 0 half of fft2 / n^2, on stacks too, and
    # to_values inverts it
    rng = np.random.default_rng(n)
    x = rng.normal(size=(3, n, n))
    modes = spectral.to_modes(x)
    assert modes.shape == (3,) + TorusGrid(n).mode_shape == (3, n, n // 2 + 1)
    ref = np.fft.fft2(x)[..., :n // 2 + 1] / n ** 2
    assert np.max(np.abs(modes - ref)) <= 1e-15 * np.max(np.abs(ref))
    back = spectral.to_values(modes)
    assert back.shape == x.shape
    assert np.max(np.abs(back - x)) <= 1e-15 * np.max(np.abs(x))
    field = ScalarField(TorusGrid(n), x[0])
    assert np.array_equal(field.modes, modes[0])


def test_from_modes_transforms_on_first_read(monkeypatch):
    # the values come from one inverse transform when first read, equal
    # to the bit to the eager to_values of the same modes
    grid = TorusGrid(64)
    rng = np.random.default_rng(1)
    modes = spectral.to_modes(rng.normal(size=(64, 64)))
    eager = spectral.to_values(modes)
    calls = []
    inverse = spectral.to_values
    monkeypatch.setattr(spectral, "to_values",
                        lambda m: calls.append(1) or inverse(m))
    f = ScalarField.from_modes(grid, modes)
    assert f.modes is not None and dirichlet_form(f, f) > 0.0
    assert calls == []
    assert np.array_equal(f.values, eager)
    assert f.values is f.values
    assert calls == [1]


def test_laplacian_examples():
    grid = TorusGrid(64)
    zero = laplacian0(ScalarField.constant(grid, 3.7))
    assert np.max(np.abs(zero.values)) < 1e-12

    f = field_from(grid, lambda X, Y: np.cos(TWO_PI * X))
    lap = laplacian0(f)
    assert np.max(np.abs(lap.values + 4 * math.pi ** 2 * f.values)) < 1e-10

    # modes (1, 2): multiplier -4 pi^2 (1 + 4) = -20 pi^2
    g = field_from(grid, lambda X, Y: np.sin(TWO_PI * X) * np.cos(2 * TWO_PI * Y))
    lap = laplacian0(g)
    assert np.max(np.abs(lap.values + 20 * math.pi ** 2 * g.values)) < 1e-9


def test_poisson_zero_and_single_mode():
    grid = TorusGrid(64)
    out = solve_poisson0(ScalarField.constant(grid, 0.0))
    assert np.max(np.abs(out.values)) == 0.0

    rhs = field_from(grid, lambda X, Y: np.cos(TWO_PI * X))
    f = solve_poisson0(rhs)
    expect = -rhs.values / (4 * math.pi ** 2)
    assert np.max(np.abs(f.values - expect)) < 1e-14
    assert abs(f.mean()) < 1e-14


def test_poisson_roundtrip_random():
    grid = TorusGrid(128)
    rng = np.random.default_rng(7)
    rhs = rand_band_limited(grid, rng, kmax=10)
    f = solve_poisson0(rhs)
    res = laplacian0(f).values - rhs.values
    assert np.max(np.abs(res)) < 1e-10 * np.max(np.abs(rhs.values))
    assert abs(f.mean()) < 1e-13


def test_poisson_nonzero_mean_rejected():
    grid = TorusGrid(64)
    rhs = ScalarField.constant(grid, 0.5)
    with pytest.raises(SolvabilityError) as err:
        solve_poisson0(rhs)
    assert abs(err.value.mean - 0.5) < 1e-12


def test_gradient_examples():
    grid = TorusGrid(64)
    g = gradient0(ScalarField.constant(grid, 1.0))
    assert np.max(np.abs(g.x.values)) < 1e-13
    assert np.max(np.abs(g.y.values)) < 1e-13

    f = field_from(grid, lambda X, Y: np.sin(TWO_PI * X))
    g = gradient0(f)
    X, _ = grid.mesh()
    assert np.max(np.abs(g.x.values - TWO_PI * np.cos(TWO_PI * X))) < 1e-11
    assert np.max(np.abs(g.y.values)) < 1e-12


def test_gradient_vs_finite_differences():
    # 4th-order central stencil; truncation ~ (2 pi)^5 h^4 / 30 ~ 7e-6 at n=64
    grid = TorusGrid(64)
    f = field_from(grid, lambda X, Y: np.sin(TWO_PI * X) * np.sin(TWO_PI * Y))
    g = gradient0(f)
    v = f.values
    h = grid.h
    fd_x = (-np.roll(v, -2, 0) + 8 * np.roll(v, -1, 0)
            - 8 * np.roll(v, 1, 0) + np.roll(v, 2, 0)) / (12 * h)
    assert np.max(np.abs(g.x.values - fd_x)) < 1e-4


def test_dirichlet_form_values():
    grid = TorusGrid(64)
    f = field_from(grid, lambda X, Y: np.cos(TWO_PI * X))
    # int 4 pi^2 sin^2(2 pi x) = 2 pi^2
    assert abs(dirichlet_form(f, f) - 2 * math.pi ** 2) < 1e-10
    assert dirichlet_form(ScalarField.constant(grid, 5.0), f) == 0.0
    g = field_from(grid, lambda X, Y: np.cos(TWO_PI * Y))
    assert abs(dirichlet_form(f, g)) < 1e-12


def test_dirichlet_form_is_symmetric_psd():
    grid = TorusGrid(64)
    rng = np.random.default_rng(3)
    f = rand_band_limited(grid, rng)
    g = rand_band_limited(grid, rng)
    assert abs(dirichlet_form(f, g) - dirichlet_form(g, f)) < 1e-12
    assert dirichlet_form(f, f) > 0.0
    assert dirichlet_form(ScalarField.constant(grid, -2.0),
                          ScalarField.constant(grid, -2.0)) == 0.0


def test_parseval():
    # mode-space energy vs grid quadrature of |grad f|^2 (no aliasing for
    # low-mode f: the product has modes below n/2)
    grid = TorusGrid(64)
    rng = np.random.default_rng(11)
    f = rand_band_limited(grid, rng, kmax=5)
    g = gradient0(f)
    quad = float(np.mean(g.x.values ** 2 + g.y.values ** 2))
    spec = dirichlet_form(f, f)
    assert abs(spec - quad) < 1e-10 * max(abs(spec), 1.0)


@pytest.mark.parametrize("n", [16, 64, 128])
def test_dirichlet_forms_match_gradient_quadrature(n):
    # the half-spectrum Parseval sums with their column weights against
    # the grid mean of gradient0 products; white noise puts weight on
    # every column, the Nyquist row and column included
    from todalab.functional import CoupledEnergy

    grid = TorusGrid(n)
    rng = np.random.default_rng(n + 1)
    u = rng.normal(size=(2, n, n))
    f, g = (ScalarField(grid, x) for x in u)
    grads = [gradient0(h) for h in (f, g)]

    def quad(a, b):
        return float(np.mean(a.x.values * b.x.values + a.y.values * b.y.values))

    pairs = [[quad(a, b) for b in grads] for a in grads]
    scale = pairs[0][0]
    assert abs(dirichlet_form(f, g) - pairs[0][1]) <= 1e-12 * scale
    assert abs(dirichlet_form(f, f) - pairs[0][0]) <= 1e-12 * scale
    a = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0
    energy = CoupledEnergy(grid, a, 0.0, np.ones((n, n)))
    ref = 0.5 * float(np.sum(a * np.array(pairs)))
    assert abs(energy.energy_and_grad(u)[0] - ref) <= 1e-12 * scale


def test_grid_mismatch_rejected():
    f = ScalarField.constant(TorusGrid(32), 1.0)
    g = ScalarField.constant(TorusGrid(64), 1.0)
    with pytest.raises(GridMismatchError):
        dirichlet_form(f, g)
    with pytest.raises(GridMismatchError):
        VectorField(f, g)
    with pytest.raises(GridMismatchError):
        ScalarField(TorusGrid(32), np.zeros((64, 64)))


def test_product_dealiased_low_modes_exact():
    grid = TorusGrid(64)
    f = field_from(grid, lambda X, Y: np.cos(TWO_PI * X))
    prod = product_dealiased(f, f)
    assert np.max(np.abs(prod.values - f.values ** 2)) < 1e-13


def test_eval_at_band_limited():
    grid = TorusGrid(64)
    f = field_from(grid, lambda X, Y: np.sin(TWO_PI * X) * np.cos(2 * TWO_PI * Y))
    rng = np.random.default_rng(5)
    pts = rng.random((40, 2))
    vals = eval_at(f, pts)
    expect = np.sin(TWO_PI * pts[:, 0]) * np.cos(2 * TWO_PI * pts[:, 1])
    assert np.max(np.abs(vals - expect)) < 1e-12


def dense_mode_sum(stack, points):
    """The direct sum over every mode of the half spectrum,
    Re sum_k w_k c_k exp(2 pi i k.x), with the column weights w = 1, 2,
    ..., 2, 1 and the Nyquist row split evenly between +-n/2, so its
    factor is cos(pi n x): the oracle for the off-grid evaluator,
    O(F m n^2)."""
    n = stack.shape[-2]
    kx = np.fft.fftfreq(n, d=1.0 / n)
    ky = np.arange(n // 2 + 1)
    w = np.where((ky == 0) | (ky == n // 2), 1.0, 2.0)
    ex = np.exp(2j * np.pi * np.outer(points[:, 0], kx))
    ex[:, n // 2] = np.cos(np.pi * n * points[:, 0])
    ey = w * np.exp(2j * np.pi * np.outer(points[:, 1], ky))
    t = np.tensordot(stack, ey, axes=([2], [1]))          # (F, n, m)
    return np.einsum("pk,fkp->fp", ex, t).real


def offgrid_points(n, rng):
    """Random points, grid nodes, points on and across the 0/1 seam, and
    negative coordinates."""
    h = 1.0 / n
    nodes = np.array([[0.0, 0.0], [h, 2 * h], [0.5, 0.75], [1 - h, 1 - h]])
    seam = np.array([[1.0 - 1e-13, 0.3], [0.3, 1.0 - 1e-13], [1e-13, 1e-13],
                     [1.0, 0.5], [0.999, 0.001]])
    negative = -rng.random((20, 2))
    return np.concatenate([rng.random((200, 2)), nodes, seam, negative])


def white_noise_modes(n, count, rng):
    """Modes of real fields with equal weight on every mode, Nyquist
    row and column included: the hardest band-limited input."""
    return np.fft.rfft2(rng.normal(size=(count, n, n))) / n ** 2


def assert_matches_dense(grid, stack, points, tol=1e-13):
    ref = dense_mode_sum(stack, points)
    got = eval_modes_stack_at(grid, stack, points)
    scale = np.max(np.abs(ref), axis=1)
    assert got.shape == ref.shape
    assert np.all(np.max(np.abs(got - ref), axis=1) <= tol * scale)


@pytest.mark.parametrize("n", [16, 64, 128])
def test_offgrid_single_field_matches_dense_sum(n):
    grid = TorusGrid(n)
    rng = np.random.default_rng(n)
    modes = white_noise_modes(n, 1, rng)
    pts = offgrid_points(n, rng)
    assert_matches_dense(grid, modes, pts)
    one = eval_modes_at(grid, modes[0], pts)
    assert np.array_equal(one, eval_modes_stack_at(grid, modes, pts)[0])


@pytest.mark.parametrize("n", [16, 64, 128])
def test_direct_sum_matches_offgrid_stack(n):
    # the one-point direct sum against the oversampled evaluator on
    # white-noise stacks, Nyquist row and column included, at random
    # points, grid nodes, the seam and negative coordinates
    grid = TorusGrid(n)
    rng = np.random.default_rng(n + 1)
    modes = white_noise_modes(n, 3, rng)
    pts = offgrid_points(n, rng)[::4]
    ref = eval_modes_stack_at(grid, modes, pts)
    got = np.stack([eval_modes_direct(grid, modes, p) for p in pts], axis=1)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    with pytest.raises(GridMismatchError):
        eval_modes_direct(grid, modes[:, :, :-1], pts[0])


def test_offgrid_curved_stack_matches_dense_sum():
    from todalab.geometry import make_conformal_metric
    from todalab.greens import extract_expansions, green_pair_case1
    from todalab.testfn import _StackEval

    grid = TorusGrid(128)
    X, Y = grid.mesh()
    metric = make_conformal_metric(ScalarField(
        grid, 0.5 * np.cos(TWO_PI * X) * np.cos(TWO_PI * Y)))
    pair = green_pair_case1((0.25, 0.25), (0.75, 0.75), metric)
    extract_expansions(pair)
    ev = _StackEval(pair)
    stack = ev.stack
    assert stack.shape == (7, 128, 65) and not stack.flags.writeable
    pts = offgrid_points(128, np.random.default_rng(1))
    assert_matches_dense(grid, stack, pts)
    # without gradients only the leading value rows (phi, G1, G2) are
    # evaluated, from their own oversampled grid, to the same bits
    r_nodes = np.geomspace(1e-6, 0.3, 40)
    full, plain = ev.polar(1, r_nodes, 48), ev.polar(1, r_nodes, 48, False)
    assert sorted(ev._fine) == [3, 7]
    assert set(plain) == {"G1", "G2", "weight", "ct", "st"}
    for key, vals in plain.items():
        assert np.array_equal(vals, full[key])


@pytest.mark.parametrize("amp, blocks", [(0.0, [2, 6]), (0.5, [1, 3, 7])],
                         ids=["flat", "cosine:0.5"])
def test_phi0_along_builds_each_row_block_grid_once(monkeypatch, amp, blocks):
    # the field evaluator reads leading blocks of its stack (metric row,
    # value rows, all rows) and builds each block's oversampled grid once
    # per fit: the first row builds them all, the later rows none.  No
    # row builds any other grid: a one-field grid (2-D modes, counted as
    # 0), such as a one-point evaluation of phi, would show here
    from todalab import testfn
    from todalab.geometry import make_conformal_metric
    from todalab.greens import extract_expansions, green_pair_case1

    grid = TorusGrid(64)
    X, Y = grid.mesh()
    metric = make_conformal_metric(ScalarField(
        grid, amp * np.cos(TWO_PI * X) * np.cos(TWO_PI * Y)))
    pair = green_pair_case1((0.25, 0.25), (0.75, 0.75), metric)
    extract_expansions(pair)
    built, per_row = [], []
    real_grid, real_row = spectral._oversampled, testfn.evaluate_phi0

    def counted_grid(grid, modes):
        built.append(len(modes) if modes.ndim == 3 else 0)
        return real_grid(grid, modes)

    def counted_row(*args, **kwargs):
        value = real_row(*args, **kwargs)
        per_row.append(len(built))
        return value

    monkeypatch.setattr(spectral, "_oversampled", counted_grid)
    monkeypatch.setattr(testfn, "evaluate_phi0", counted_row)
    rows = testfn.phi0_along(pair, (1e-2, 1e-3, 1e-4), None)
    assert len(rows) == 3
    assert per_row == [len(blocks)] * 3
    assert sorted(built) == blocks


def test_offgrid_nyquist_modes():
    # the Nyquist row splits evenly between k_x = +-n/2 (cos(pi n x)),
    # the Nyquist column is k_y = +n/2 with weight 1
    n = 64
    grid = TorusGrid(n)
    modes = np.zeros((3,) + grid.mode_shape, dtype=complex)
    modes[0, n // 2, 0] = 1.0            # cos(pi n x)
    modes[1, n // 2, n // 2] = 0.5j      # Re: -0.5 cos(pi n x) sin(pi n y)
    modes[2, 3, n // 2] = 1.0            # cos(2 pi (3 x + n y / 2))
    rng = np.random.default_rng(4)
    pts = offgrid_points(n, rng)
    assert_matches_dense(grid, modes, pts)
    got = eval_modes_stack_at(grid, modes, pts)
    x, y = pts[:, 0], pts[:, 1]
    assert np.max(np.abs(got[0] - np.cos(math.pi * n * x))) < 1e-12
    assert np.max(np.abs(got[1] + 0.5 * np.cos(math.pi * n * x)
                         * np.sin(math.pi * n * y))) < 1e-12
    assert np.max(np.abs(got[2] - np.cos(TWO_PI * (3 * x + n * y / 2)))) < 1e-12
    nodes = np.stack(np.meshgrid(np.arange(n) / n, [0.25]), -1).reshape(-1, 2)
    alternating = (-1.0) ** np.arange(n)
    assert np.max(np.abs(eval_modes_at(grid, modes[0], nodes)
                         - alternating)) < 1e-13


def test_offgrid_interpolant_keeps_the_grid_symmetries():
    # white noise made even under x -> -x, y -> -y and x <-> y on the
    # grid: the interpolant is too, to round-off, because each Nyquist
    # coefficient is split evenly between +-n/2
    n = 32
    grid = TorusGrid(n)
    rng = np.random.default_rng(5)
    v = rng.normal(size=(n, n))
    v = v + np.roll(v[::-1], 1, axis=0)
    v = v + np.roll(v[:, ::-1], 1, axis=1)
    v = v + v.T
    f = ScalarField(grid, v)
    d = rng.uniform(-0.5, 0.5, (200, 2))
    base = eval_at(f, d)
    for image in (d * [-1.0, 1.0], d * [1.0, -1.0], d[:, ::-1]):
        assert np.max(np.abs(eval_at(f, image) - base)) < 1e-13 * np.max(np.abs(v))


def test_offgrid_gradient_matches_dense_sum():
    grid = TorusGrid(64)
    rng = np.random.default_rng(8)
    f = rand_band_limited(grid, rng, kmax=20)
    kx = np.fft.fftfreq(64, d=1.0 / 64)
    ky = np.arange(33.0)
    kx[32] = ky[32] = 0.0                         # Nyquist derivative is 0
    stack = np.stack([f.modes * (2j * np.pi * kx[:, None]),
                      f.modes * (2j * np.pi * ky[None, :])])
    pts = offgrid_points(64, rng)
    ref = dense_mode_sum(stack, pts).T
    got = eval_gradient_at(f, pts)
    assert got.shape == (pts.shape[0], 2)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_kernel_transform_bessel_matches_mpmath():
    # e^{-s} I_1(s) enters the kernel's Fourier transform with
    # s^2 = beta^2 - (pi W k / m)^2, |k| <= n / 2 = m / 4
    import mpmath

    beta = spectral._ES_BETA
    s_min = math.sqrt(beta ** 2 - (math.pi * spectral._ES_WIDTH / 4) ** 2)
    assert 34.0 < s_min < beta < 37.0
    s = np.linspace(34.0, 37.0, 601)
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.besseli(1, x) * mpmath.exp(-x))
                        for x in map(mpmath.mpf, s)])
    assert np.max(np.abs(spectral._ive1(s) - ref) / ref) <= 1e-15


def test_multiplier_table_shared_and_read_only():
    grid = TorusGrid(32)
    table = (grid.k2, grid.laplacian, grid.dirichlet, grid.parseval) + grid.ik
    before = [t.copy() for t in table]
    assert grid.laplacian is table[1] and grid.ik[1] is table[5]
    assert not any(t.flags.writeable for t in table)
    with pytest.raises(ValueError):
        grid.laplacian[0, 0] = 1.0
    # the conventions: half-width (32, 17) arrays, full |k|^2 in the
    # Laplacian, Nyquist-zeroed derivatives and Dirichlet multiplier, and
    # the Parseval weight 2 on the interior columns
    assert grid.mode_shape == (32, 17)
    assert grid.k2.shape == grid.dirichlet.shape == (32, 17)
    assert grid.ik[0].shape == (32, 1) and grid.ik[1].shape == (1, 17)
    kx = np.fft.fftfreq(32, d=1.0 / 32)
    ky = np.arange(17)
    assert np.array_equal(grid.k2, kx[:, None] ** 2 + ky[None, :] ** 2)
    assert np.array_equal(grid.parseval[0], [1.0] + [2.0] * 15 + [1.0])
    assert grid.laplacian[16, 3] == -4.0 * np.pi ** 2 * (16 ** 2 + 3 ** 2)
    assert grid.laplacian[3, 16] == -4.0 * np.pi ** 2 * (3 ** 2 + 16 ** 2)
    assert grid.dirichlet[16, 3] == 2.0 * 4.0 * np.pi ** 2 * 3 ** 2
    assert grid.dirichlet[3, 16] == 4.0 * np.pi ** 2 * 3 ** 2
    assert grid.dirichlet[3, 0] == 4.0 * np.pi ** 2 * 3 ** 2
    assert grid.ik[0][16, 0] == 0.0 and grid.ik[1][0, 16] == 0.0
    f = rand_band_limited(grid, np.random.default_rng(4))
    u = solve_poisson0(laplacian0(f))
    assert np.max(np.abs(u.values - f.values)) < 1e-12
    gradient0(f)
    dirichlet_form(f, u)
    product_dealiased(f, u)
    for t, b in zip(table, before):
        assert np.array_equal(t, b)


def _fft_references(tree):
    """Line numbers of `<x>.fft` attributes and of fft imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "fft":
            yield node.lineno
        elif isinstance(node, ast.Import):
            if any("fft" in a.name.split(".") for a in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom):
            if "fft" in (node.module or "").split(".") \
                    or any(a.name == "fft" for a in node.names):
                yield node.lineno


def test_only_spectral_references_fft():
    src = pathlib.Path(spectral.__file__).parent
    found = {path.name: list(_fft_references(ast.parse(path.read_text())))
             for path in sorted(src.glob("*.py"))}
    assert found.pop("spectral.py")               # the guard sees its uses
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_every_export_resolves():
    # a name left in __all__ after its definition went is a broken import
    for info in pkgutil.iter_modules(todalab.__path__):
        module = importlib.import_module(f"todalab.{info.name}")
        stale = [n for n in getattr(module, "__all__", ())
                 if not hasattr(module, n)]
        assert stale == [], (info.name, stale)


def test_offgrid_rejects_wrong_grid():
    with pytest.raises(GridMismatchError):
        eval_modes_stack_at(TorusGrid(32), np.zeros((2, 64, 33)),
                            np.zeros((1, 2)))
    # an oversampled grid passed in must be the stack's own
    grid = TorusGrid(32)
    modes = white_noise_modes(32, 2, np.random.default_rng(3))
    pts = offgrid_points(32, np.random.default_rng(3))
    fine = spectral._oversampled(grid, modes)
    assert np.array_equal(eval_modes_stack_at(grid, modes, pts, fine=fine),
                          eval_modes_stack_at(grid, modes, pts))
    for wrong in (spectral._oversampled(grid, modes[:1]),
                  spectral._oversampled(TorusGrid(16), modes[:, ::2, :9])):
        with pytest.raises(GridMismatchError):
            eval_modes_stack_at(grid, modes, pts, fine=wrong)


def test_full_layout_modes_rejected():
    # an (n, n) full-spectrum array is not a mode array of the n grid
    grid = TorusGrid(32)
    full = np.fft.fft2(np.ones((32, 32))) / 32 ** 2
    with pytest.raises(GridMismatchError):
        ScalarField.from_modes(grid, full)
    with pytest.raises(GridMismatchError):
        eval_modes_stack_at(grid, full[None], np.zeros((1, 2)))
    with pytest.raises(GridMismatchError):
        eval_modes_at(grid, full, np.zeros((1, 2)))


def test_wrap_offset():
    out = wrap_offset(np.array([0.9, -0.6, 0.4, 0.0]))
    assert np.allclose(out, [-0.1, 0.4, 0.4, 0.0], atol=1e-15)


def test_save_load_roundtrip(tmp_path):
    grid = TorusGrid(32)
    rng = np.random.default_rng(9)
    f = ScalarField(grid, rng.normal(size=(32, 32)))
    path = tmp_path / "field.txt"
    save_field(path, f)
    vals = load_field_values(path)
    assert np.array_equal(vals, f.values)  # %.17g round-trips doubles


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("4\n1 2 3\n")  # wrong count
    with pytest.raises(DataError):
        load_field_values(path)
    path.write_text("4\n" + " ".join(["x"] * 16) + "\n")
    with pytest.raises(DataError):
        load_field_values(path)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_poisson_inverts_laplacian(seed):
    grid = TorusGrid(64)
    rng = np.random.default_rng(seed)
    f = rand_band_limited(grid, rng, kmax=8)
    f = ScalarField(grid, f.values - f.values.mean())
    rhs = laplacian0(f)
    back = solve_poisson0(rhs)
    assert np.max(np.abs(back.values - f.values)) < 1e-10
