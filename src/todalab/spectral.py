"""Periodic scalar fields on the unit torus and their Fourier-space algebra.

Conventions
-----------
The torus is [0,1)^2 with unit cell area 1.  A field holds grid values
``f[i, j] = f(i*h, j*h)`` with ``h = 1/n``, spectral coefficients, or
both: it is built from either, and the other is computed on first read
and cached.  Fields are real, so the modes are the half spectrum
``fhat = rfft2(values) / n**2``, an (n, n/2 + 1) array with rows k_x in
``fftfreq`` order (row n/2 is k_x = -n/2) and columns k_y = 0 .. n/2;
the other half is ``fhat[-k] = conj(fhat[k])`` and

    f(x, y) = sum over all k of fhat[k1, k2] * exp(2*pi*i*(k1*x + k2*y)).

Parseval therefore weights the interior columns 0 < k_y < n/2 by 2:
``integral(f * g) = Re sum_k c_k fhat_k * conj(ghat_k)`` with
``c = TorusGrid.parseval``.

Nyquist: first derivatives zero the k_x = -n/2 row and the k_y = n/2
column (the standard symmetric choice for real transforms); the
Laplacian keeps the full multiplier ``-4*pi^2*|k|^2``, which is exact on
every representable mode.  Off the grid (``eval_modes_stack_at``,
``eval_modes_direct``) each Nyquist coefficient is split evenly between
+n/2 and -n/2, the real symmetric interpolant of the grid values.

This module is the only one that calls ``np.fft``: other modules move
between values and modes with ``to_modes``/``to_values`` and take their
Fourier multipliers from the grid's table (``TorusGrid.k2``,
``laplacian``, ``ik``, ``dirichlet``, ``parseval``), which is built once
per grid and is read-only.  It is also the only one that forms a Fourier
phase e^{2 pi i k.x}, with k.x reduced mod 1 before the 2 pi
(``_phases``): a point mass's modes (``delta_modes``) and the direct sum
at a point (``eval_modes_direct``) share these rows, so a sum that must
cancel by symmetry cancels to round-off at every n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError, GridMismatchError, SolvabilityError

__all__ = [
    "TorusGrid", "ScalarField", "VectorField", "to_modes", "to_values",
    "laplacian0", "solve_poisson0", "gradient0", "dirichlet_form",
    "product_dealiased", "eval_modes_at", "eval_modes_stack_at",
    "eval_modes_direct", "delta_modes", "eval_at", "eval_gradient_at",
    "wrap_offset", "save_field", "load_field_values",
]


@dataclass(frozen=True)
class TorusGrid:
    """Uniform n-by-n grid on the unit square with periodic identification."""

    n: int

    def __post_init__(self):
        n = self.n
        if n < 16 or (n & (n - 1)) != 0:
            raise ConfigError(f"grid size must be a power of two >= 16, got {n}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    def axis(self) -> np.ndarray:
        """Grid coordinates along one axis."""
        return np.arange(self.n) * self.h

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays X, Y with ``X[i, j] = i*h``, ``Y[i, j] = j*h``."""
        x = self.axis()
        return np.meshgrid(x, x, indexing="ij")

    def points(self) -> np.ndarray:
        """The n^2 grid nodes as an (n^2, 2) array, in mesh() order."""
        X, Y = self.mesh()
        return np.stack([X.ravel(), Y.ravel()], axis=1)

    @property
    def mode_shape(self) -> tuple[int, int]:
        """Shape of a field's half-spectrum mode array, (n, n/2 + 1)."""
        return self.n, self.n // 2 + 1

    def freqs(self) -> tuple[np.ndarray, np.ndarray]:
        """Integer frequencies of the mode array as broadcastable (n, 1)
        and (1, n/2 + 1) arrays: k_x in fftfreq order, k_y = 0 .. n/2."""
        n = self.n
        kx = np.fft.fftfreq(n, d=1.0 / n)
        ky = np.arange(n // 2 + 1, dtype=float)
        return kx[:, None], ky[None, :]

    def _deriv_freqs(self) -> tuple[np.ndarray, np.ndarray]:
        """Frequencies for first derivatives: Nyquist row and column zeroed."""
        kx, ky = self.freqs()
        kx[self.n // 2, 0] = 0.0
        ky[0, self.n // 2] = 0.0
        return kx, ky

    # The multiplier table: each entry is built on first use, kept on the
    # grid and shared, read-only, by every field and operator on it.

    @cached_property
    def k2(self) -> np.ndarray:
        """|k|^2 on the (n, n/2 + 1) mode grid."""
        kx, ky = self.freqs()
        return _read_only(kx ** 2 + ky ** 2)

    @cached_property
    def laplacian(self) -> np.ndarray:
        """-4 pi^2 |k|^2, the flat Laplacian's multiplier."""
        return _read_only(-4.0 * np.pi ** 2 * self.k2)

    @cached_property
    def ik(self) -> tuple[np.ndarray, np.ndarray]:
        """2 pi i k_x and 2 pi i k_y of first derivatives, Nyquist zeroed,
        as broadcastable (n, 1) and (1, n/2 + 1) arrays."""
        kx, ky = self._deriv_freqs()
        return _read_only(2j * np.pi * kx), _read_only(2j * np.pi * ky)

    @cached_property
    def parseval(self) -> np.ndarray:
        """Parseval's column weights, (1, n/2 + 1): 2 on the interior
        columns 0 < k_y < n/2, which stand for their conjugates too, and
        1 on k_y = 0 and n/2."""
        c = np.full((1, self.n // 2 + 1), 2.0)
        c[0, 0] = c[0, -1] = 1.0
        return _read_only(c)

    @cached_property
    def dirichlet(self) -> np.ndarray:
        """4 pi^2 |k|^2 with the derivatives' Nyquist rule, times the
        Parseval weights: the Dirichlet form's multiplier."""
        kx, ky = self._deriv_freqs()
        return _read_only(4.0 * np.pi ** 2 * (kx ** 2 + ky ** 2)
                          * self.parseval)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def to_modes(values: np.ndarray) -> np.ndarray:
    """Half-spectrum modes (..., m, m/2 + 1) of (..., m, m) grid values:
    rfft2(values) / m^2 (the power-of-two scaling is exact)."""
    return np.fft.rfft2(values, norm="forward")


def to_values(modes: np.ndarray) -> np.ndarray:
    """Grid values (..., m, m) of (..., m, m/2 + 1) modes:
    irfft2(modes) * m^2."""
    m = modes.shape[-2]
    return np.fft.irfft2(modes, s=(m, m), norm="forward")


class ScalarField:
    """Real periodic field with consistent grid values and spectral modes.

    Either side is computed from the other on first read and then kept."""

    __slots__ = ("grid", "_values", "_modes")

    def __init__(self, grid: TorusGrid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n, grid.n):
            raise GridMismatchError(
                f"values shape {values.shape} does not match grid n={grid.n}")
        self.grid = grid
        self._values = values
        self._modes = None

    @classmethod
    def from_modes(cls, grid: TorusGrid, modes: np.ndarray) -> "ScalarField":
        modes = np.asarray(modes, dtype=complex)
        if modes.shape != grid.mode_shape:
            raise GridMismatchError(
                f"modes shape {modes.shape} does not match grid n={grid.n}")
        field = cls.__new__(cls)
        field.grid = grid
        field._values = None
        field._modes = modes
        return field

    @classmethod
    def constant(cls, grid: TorusGrid, c: float) -> "ScalarField":
        return cls(grid, np.full((grid.n, grid.n), float(c)))

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = to_values(self._modes)
        return self._values

    @property
    def modes(self) -> np.ndarray:
        if self._modes is None:
            self._modes = to_modes(self._values)
        return self._modes

    def mean(self) -> float:
        """Plain-area mean, equal to the zero mode."""
        return float(self.values.mean())

    def __repr__(self):
        return f"ScalarField(n={self.grid.n}, mean={self.mean():.3e})"


@dataclass(frozen=True)
class VectorField:
    """Pair of component fields on one grid (x- and y-components)."""

    x: ScalarField
    y: ScalarField

    def __post_init__(self):
        if self.x.grid != self.y.grid:
            raise GridMismatchError("vector components live on different grids")

    @property
    def grid(self) -> TorusGrid:
        return self.x.grid


def _same_grid(f: ScalarField, g: ScalarField) -> TorusGrid:
    if f.grid != g.grid:
        raise GridMismatchError(
            f"fields on different grids: n={f.grid.n} vs n={g.grid.n}")
    return f.grid


def laplacian0(f: ScalarField) -> ScalarField:
    """Flat Laplacian (d^2/dx^2 + d^2/dy^2), spectral multiplier -4 pi^2 |k|^2."""
    return ScalarField.from_modes(f.grid, f.modes * f.grid.laplacian)


def solve_poisson0(rhs: ScalarField, mean_tol: float = 1e-8) -> ScalarField:
    """Zero-mean f with (d^2/dx^2 + d^2/dy^2) f = rhs on the torus.

    The right-hand side must have (near-)zero mean; otherwise the periodic
    problem has no solution and a SolvabilityError reports the mean.
    """
    mean = rhs.mean()
    scale = float(np.max(np.abs(rhs.values))) or 1.0
    if abs(mean) > mean_tol * max(1.0, scale):
        raise SolvabilityError(mean)
    mult = rhs.grid.laplacian
    out = np.divide(rhs.modes, mult, out=np.zeros_like(rhs.modes),
                    where=mult != 0.0)          # the zero mode stays 0
    return ScalarField.from_modes(rhs.grid, out)


def gradient0(f: ScalarField) -> VectorField:
    """Spectral gradient; Nyquist derivative set to zero."""
    fx, fy = (ScalarField.from_modes(f.grid, f.modes * ik) for ik in f.grid.ik)
    return VectorField(fx, fy)


def dirichlet_form(f: ScalarField, g: ScalarField) -> float:
    """integral of grad f . grad g over the torus (flat area element).

    Computed in mode space, with the Parseval column weights; uses the
    same Nyquist-zeroed derivative frequencies as gradient0 so that the
    Parseval identity against grid quadrature of the gradients holds to
    round-off.
    """
    grid = _same_grid(f, g)
    return float(np.real(np.sum(grid.dirichlet * f.modes * np.conj(g.modes))))


def _pad_modes(modes: np.ndarray, m: int) -> np.ndarray:
    """(..., n, n/2 + 1) modes zero-padded to (..., m, m/2 + 1), m > n:
    the same real interpolant on the finer grid.  Each Nyquist
    coefficient is split evenly between +-n/2: the k_x = n/2 row goes
    half to each of the rows +-n/2, and the k_y = n/2 column, an interior
    column of the m grid that stands for its conjugate too, is halved."""
    n = modes.shape[-2]
    h = n // 2
    out = np.zeros(modes.shape[:-2] + (m, m // 2 + 1), dtype=complex)
    out[..., :h, :h + 1] = modes[..., :h, :]
    out[..., m - h:, :h + 1] = modes[..., h:, :]
    out[..., m - h, :] *= 0.5
    out[..., h, :] = out[..., m - h, :]
    out[..., h] *= 0.5
    return out


def _band(modes: np.ndarray, n: int) -> np.ndarray:
    """The (n, n/2 + 1) band of (m, m/2 + 1) modes, m > n, laid out as
    _pad_modes lays it out (the k_y = n/2 column taken as it is)."""
    m = modes.shape[-2]
    h = n // 2
    return np.concatenate([modes[:h, :h + 1], modes[m - h:, :h + 1]])


def product_dealiased(f: ScalarField, g: ScalarField) -> ScalarField:
    """Pointwise product with 2/3-rule zero padding (alias-free in band)."""
    grid = _same_grid(f, g)
    n = grid.n
    m = 3 * n // 2
    fv = to_values(_pad_modes(f.modes, m))
    gv = to_values(_pad_modes(g.modes, m))
    return ScalarField.from_modes(grid, _band(to_modes(fv * gv), n))


# Off-grid evaluation is a type-2 non-uniform FFT (Dutt-Rokhlin 1993;
# Greengard-Lee, SIAM Rev. 2004) with the "exponential of semicircle"
# kernel of Barnett, Magland and af Klinteberg (SISC 2019).  The band modes
# are divided by the kernel's Fourier transform, zero-padded to a 2n grid
# and transformed back once; each point is then a separable W x W kernel
# contraction of that oversampled grid.  W = 16 with beta = 2.30 W puts
# the aliasing error below round-off: on Green's-function bands the values
# are within 1e-15 of max|f| of a long-double direct sum (the double
# direct sum is as far off), and within 2e-14 with white-noise modes up
# to Nyquist.
_ES_WIDTH = 16
_ES_BETA = 2.30 * _ES_WIDTH
# points per gathered block batch: a batch gathers chunk * W^2 * F
# doubles (1.6 MB for the six-field stack), which sets the memory peak
# of a phi0 evaluation
_EVAL_CHUNK = 128


def _es_kernel(z: np.ndarray) -> np.ndarray:
    """exp(beta (sqrt(1 - z^2) - 1)) on |z| <= 1 (about 1e-16 at the edge),
    with the exponent written as -beta z^2 / (1 + sqrt(1 - z^2)) so that
    it carries no cancellation where the kernel is large."""
    z2 = z * z
    return np.exp(-_ES_BETA * z2 / (1.0 + np.sqrt(np.maximum(1.0 - z2, 0.0))))


def _ive1(s: np.ndarray) -> np.ndarray:
    """e^{-s} I_1(s) for s >= 30 by the large-argument series
    (Abramowitz-Stegun 9.7.1), (2 pi s)^{-1/2} sum_k t_k with t_0 = 1 and
    t_k / t_{k-1} = ((2k - 1)^2 - 4) / (8 k s), nested from the 30th term
    (below 1e-20 there).  Here s lies in [34.6, 36.8]."""
    acc = np.zeros_like(s)
    for k in range(29, 0, -1):
        acc = (1.0 + acc) * ((2 * k - 1) ** 2 - 4) / (8.0 * k * s)
    return (1.0 + acc) / np.sqrt(2.0 * np.pi * s)


def _es_transform(k: np.ndarray, m: int) -> np.ndarray:
    """m times the Fourier transform at integer k of the kernel stretched
    over W points of the m-point grid, (W/2) int_{-1}^{1} kernel(z)
    cos(a z) dz with a = pi W k / m.

    With z = sin(theta) the integral runs over half a circle; over the
    whole circle it is 2 pi beta e^{-beta} I_1(s) / s, s^2 = beta^2 - a^2,
    and the other half adds below 1e-18 of it.  This closed form is exact
    to round-off, where Gauss-Legendre in z leaves a few 1e-15 in every
    mode (the kernel's square root is singular at the ends)."""
    a = np.pi * _ES_WIDTH * np.asarray(k, dtype=float) / m
    s = np.sqrt(_ES_BETA ** 2 - a * a)
    # e^{-beta} I_1(s) = _ive1(s) e^{s - beta}, s - beta = -a^2 / (beta + s)
    return (np.pi * _ES_WIDTH * _ES_BETA / s * _ive1(s)
            * np.exp(-a * a / (_ES_BETA + s)))


def _oversampled(grid: TorusGrid, modes: np.ndarray) -> np.ndarray:
    """Deconvolved real grids of (n, n/2 + 1) or (F, n, n/2 + 1) modes,
    shape (2n + W - 1, 2n + W - 1, F); the last W - 1 rows and columns
    repeat the first, so no block wraps."""
    n, m, w = grid.n, 2 * grid.n, _ES_WIDTH
    stack = modes.reshape((-1,) + grid.mode_shape)
    kx, ky = grid.freqs()
    decon = (1.0 / _es_transform(kx, m)) * (1.0 / _es_transform(ky, m))
    out = np.empty((m + w - 1, m + w - 1, stack.shape[0]))
    for f, field_modes in enumerate(stack):  # one (2n, n + 1) at a time
        u = to_values(_pad_modes(field_modes * decon, m))
        out[:, :, f] = np.pad(u, (0, w - 1), mode="wrap")
    return out


def _contract(fine: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Kernel sums of an oversampled grid at the points; (F, m) real."""
    w = _ES_WIDTH
    size = fine.shape[0] - w + 1
    nf = fine.shape[2]
    s0, s1, s2 = fine.strides
    # blocks[i, j] is the (w, w*F) block whose corner is fine[i, j]
    blocks = np.lib.stride_tricks.as_strided(
        fine, shape=(size, size, w, w * nf), strides=(s0, s1, s0, s2),
        writeable=False)
    off = np.arange(w)
    d = points * size
    corner = np.floor(d - w / 2.0).astype(np.int64) + 1   # first node
    d -= corner                               # in (w/2 - 1, w/2]
    corner %= size
    out = np.empty((nf, points.shape[0]))
    for lo in range(0, points.shape[0], _EVAL_CHUNK):
        hi = lo + _EVAL_CHUNK
        # kxy[:, 0] and kxy[:, 1]: the x and y kernel factors, (c, 2, w)
        kxy = _es_kernel(2.0 * (d[lo:hi, :, None] - off) / w)
        blk = blocks[corner[lo:hi, 0], corner[lo:hi, 1]]   # (c, w, w*F)
        rows = np.matmul(kxy[:, :1, :], blk).reshape(-1, w, nf)
        out[:, lo:hi] = np.einsum("cbf,cb->fc", rows, kxy[:, 1])
        del blk, rows      # else the next gather runs while this one lives
    return out


def eval_modes_at(grid: TorusGrid, modes: np.ndarray,
                  points: np.ndarray) -> np.ndarray:
    """Re sum_k c_k modes_k exp(2 pi i k.x) at arbitrary points, shape
    (m,), with the Parseval weights c_k and the Nyquist split of the
    module docstring.

    points: array of shape (m, 2), any real coordinates.  See
    eval_modes_stack_at.
    """
    return _evaluate(grid, modes, points)[0]


def eval_modes_stack_at(grid: TorusGrid, stack: np.ndarray,
                        points: np.ndarray,
                        fine: np.ndarray | None = None) -> np.ndarray:
    """Several weighted mode sums (eval_modes_at) at the same points,
    shape (F, m).

    stack: (F, n, n/2 + 1) modes.  Agrees with the direct sum to round-off
    (see above).  The cost is one 2n x 2n inverse real FFT per field, plus
    O(F W^2) per point; a caller that reuses a stack passes its grid,
    fine = _oversampled(grid, stack), and this module keeps nothing.
    """
    return _evaluate(grid, stack, points, fine)


def eval_modes_direct(grid: TorusGrid, stack: np.ndarray, p) -> np.ndarray:
    """eval_modes_stack_at's (F,) sums of (F, n, n/2 + 1) modes at one
    point p, summed directly in O(F n^2) with no oversampled grid.  The
    Nyquist row's phase is cos(pi n x); the Nyquist column needs nothing,
    as Re with its Parseval weight 1 is the split."""
    stack = np.asarray(stack)
    if stack.shape[-2:] != grid.mode_shape:
        raise GridMismatchError(
            f"modes shape {stack.shape} does not match grid n={grid.n}")
    kx, ky = grid.freqs()
    ex, ey = _phases(kx[:, 0], p[0]), _phases(ky[0], p[1]) * grid.parseval[0]
    ex[grid.n // 2] = ex[grid.n // 2].real
    return np.real((stack @ ey) @ ex)


def delta_modes(grid: TorusGrid, p) -> np.ndarray:
    """e^{-2 pi i k.p} on the (n, n/2 + 1) mode grid, the modes of the
    point mass at p: the conjugated outer product of the exact phase
    rows that eval_modes_direct sums with."""
    kx, ky = grid.freqs()
    return np.conj(np.multiply.outer(_phases(kx[:, 0], p[0]),
                                     _phases(ky[0], p[1])))


def _phases(k: np.ndarray, x: float) -> np.ndarray:
    """e^{2 pi i k x}, k x reduced mod 1 before the 2 pi: k times x's
    leading 20 bits is exact (a plain 2 pi k x is off by k ulp(x))."""
    hi = round(float(x) % 1.0 * 2.0 ** 20) / 2.0 ** 20
    t = k * hi
    return np.exp(2j * np.pi * ((t - np.floor(t)) + k * (float(x) % 1.0 - hi)))


def _evaluate(grid: TorusGrid, modes: np.ndarray, points: np.ndarray,
              fine: np.ndarray | None = None) -> np.ndarray:
    """(F, m) values of (n, n/2 + 1) (F = 1) or (F, n, n/2 + 1) modes."""
    modes = np.asarray(modes)
    if modes.ndim not in (2, 3) or modes.shape[-2:] != grid.mode_shape:
        raise GridMismatchError(
            f"modes shape {modes.shape} does not match grid n={grid.n}")
    size = 2 * grid.n + _ES_WIDTH - 1
    fields = len(modes) if modes.ndim == 3 else 1
    if fine is None:
        fine = _oversampled(grid, modes)
    elif fine.shape != (size, size, fields):
        raise GridMismatchError(f"oversampled grid {fine.shape} does not "
                                f"belong to modes {modes.shape}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return _contract(fine, points)


def eval_at(f: ScalarField, points: np.ndarray) -> np.ndarray:
    """Band-limited interpolation of f at off-grid points."""
    return eval_modes_at(f.grid, f.modes, points)


def eval_gradient_at(f: ScalarField, points: np.ndarray) -> np.ndarray:
    """Band-limited gradient at off-grid points; returns shape (m, 2)."""
    stack = np.stack([f.modes * ik for ik in f.grid.ik])
    return eval_modes_stack_at(f.grid, stack, points).T


def wrap_offset(d: np.ndarray) -> np.ndarray:
    """Wrap displacements into [-1/2, 1/2)^2 (nearest periodic image)."""
    return (np.asarray(d, dtype=float) + 0.5) % 1.0 - 0.5


def save_field(path, field: ScalarField) -> None:
    """Plain-text grid format: first line n, then n^2 reals row-major."""
    with open(path, "w") as fh:
        fh.write(f"{field.grid.n}\n")
        for row in field.values:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_field_values(path) -> np.ndarray:
    """Read the plain-text grid format; returns the (n, n) value array."""
    # bytes that are not UTF-8 become U+FFFD, which no number parses
    with open(path, encoding="utf-8", errors="replace") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise DataError(f"empty field file: {path}")
    try:
        n = int(tokens[0])
        data = np.array([float(t) for t in tokens[1:]], dtype=float)
    except ValueError as exc:
        raise DataError(f"field file {path}: {exc}") from None
    if n < 1 or data.size != n * n:
        raise DataError(f"field file {path}: expected a size n >= 1 and n^2 "
                        f"values, found n = {n} and {data.size} values")
    if not np.all(np.isfinite(data)):
        raise DataError(f"field file {path}: non-finite values")
    return data.reshape(n, n)
