"""Checks of todalab's outputs, computed apart from the program.

Nothing here calls todalab.  Each check returns (ok, detail) where
detail is a short string with the measured quantity.  References:

* the closing constant C of the flat two-pole pair on the square torus,
  in closed form from Jacobi's theta function and Dedekind's eta;
* a 4th-order finite-difference Laplacian for the one-pole equations;
* a spectral quadrature of Phi_eps and of its Euler-Lagrange residual
  on the grid, for the curved-metric descent.
"""

from __future__ import annotations

import math

import numpy as np

EIGHT_PI = 8.0 * math.pi
SLOPE_WINDOW = 0.20          # relative window of the log coefficient
TARGET_SLOPE = -EIGHT_PI     # deficit slope of the flat two-pole pair


def _result(ok: bool, detail: str) -> tuple[bool, str]:
    return bool(ok), detail


# ---------------------------------------------------------------------------
# two-pole pair: closing constant and deficit rows
# ---------------------------------------------------------------------------

def closing_constant_square_torus() -> float:
    """C = -8 pi log pi - 8 pi - 4 pi A for poles half a diagonal apart.

    On the unit square torus (tau = i) the zero-mean Green function of
    -Delta G = delta - 1 is
        G(z) = -(1/2 pi) log|theta_1(pi z, q) / eta(i)| + (Im z)^2 / 2,
    q = e^{-pi}, with Robin constant R = -log(2 pi eta(i)^2) / (2 pi) and
    eta(i) = Gamma(1/4) / (2 pi^{3/4}).  Each field of the pair has
    A = 8 pi R - 4 pi G(1/2 + i/2).
    """
    import mpmath as mp

    with mp.workdps(40):
        eta = mp.gamma(mp.mpf(1) / 4) / (2 * mp.pi ** (mp.mpf(3) / 4))
        robin = -mp.log(2 * mp.pi * eta ** 2) / (2 * mp.pi)
        z = mp.mpc(0.5, 0.5)
        theta = mp.jtheta(1, mp.pi * z, mp.exp(-mp.pi))
        g_half = -mp.log(abs(theta / eta)) / (2 * mp.pi) + z.imag ** 2 / 2
        a = 8 * mp.pi * robin - 4 * mp.pi * g_half
        c = -8 * mp.pi * mp.log(mp.pi) - 8 * mp.pi - 4 * mp.pi * a
        return float(c)


def check_closing_constant(c_program: float, c_ref: float,
                           tol: float = 1e-10):
    err = abs(c_program - c_ref)
    return _result(err <= tol, f"|C - C_ref| = {err:.2e} (tol {tol:.0e})")


def check_deficit_row(phi0: float, c_ref: float, tail: bool):
    """A row's value is finite; on a tail coupling it lies below C."""
    gap = phi0 - c_ref
    if not math.isfinite(phi0):
        return _result(False, f"phi0 = {phi0}")
    if tail:
        return _result(gap < 0.0, f"tail gap {gap:+.3e}")
    return _result(True, f"gap {gap:+.3e}")


def check_deficit_slope(slope: float, stderr: float):
    """Log coefficient within the window around -8 pi, error inside it."""
    window = SLOPE_WINDOW * abs(TARGET_SLOPE)
    ok = abs(slope - TARGET_SLOPE) <= window and stderr < window
    return _result(ok, f"slope {slope:.3f} +- {stderr:.3f} "
                       f"(target {TARGET_SLOPE:.3f} +- {window:.3f})")


# ---------------------------------------------------------------------------
# one-pole pair
# ---------------------------------------------------------------------------

def fd_laplacian(f, pts: np.ndarray, h: float) -> np.ndarray:
    """4th-order central differences: (-f2 + 16 f1 - 30 f0 + 16 f-1 - f-2)
    / 12 h^2 along each axis."""
    f0 = f(pts)
    out = np.zeros(len(pts))
    for axis in (0, 1):
        e = np.zeros(2)
        e[axis] = h
        out += (-f(pts + 2 * e) + 16.0 * f(pts + e) - 30.0 * f0
                + 16.0 * f(pts - e) - f(pts - 2 * e)) / (12.0 * h * h)
    return out


def one_pole_residuals(g1, g2, pts: np.ndarray, h: float = 5e-4):
    """Sup residuals of the flat one-pole equations off the pole:
    -Lap G2 = 8 pi e^G2 - 4 pi and -Lap G1 = -4 pi e^G2 - 4 pi."""
    e2 = np.exp(g2(pts))
    four_pi = 4.0 * math.pi
    r1 = -fd_laplacian(g1, pts, h) + four_pi * e2 + four_pi
    r2 = -fd_laplacian(g2, pts, h) - 2.0 * four_pi * e2 + four_pi
    return float(np.max(np.abs(r1))), float(np.max(np.abs(r2)))


def check_one_pole_residuals(g1, g2, pts, tol: float = 1e-5):
    r1, r2 = one_pole_residuals(g1, g2, pts)
    return _result(max(r1, r2) < tol,
                   f"fd residuals {r1:.2e}, {r2:.2e} (tol {tol:.0e})")


def reflection_asymmetry(g, pole: np.ndarray, disp: np.ndarray) -> float:
    """Largest change of g under the square's reflections about the pole."""
    base = g(pole + disp)
    worst = 0.0
    for image in (disp * [-1.0, 1.0], disp * [1.0, -1.0], disp[:, ::-1]):
        worst = max(worst, float(np.max(np.abs(g(pole + image) - base))))
    return worst


def check_reflections(g1, g2, pole, disp, tol: float = 1e-12):
    a1 = reflection_asymmetry(g1, pole, disp)
    a2 = reflection_asymmetry(g2, pole, disp)
    return _result(max(a1, a2) <= tol,
                   f"reflection asymmetry {a1:.1e}, {a2:.1e} (tol {tol:.0e})")


def exp_integral(g, m: int = 512) -> float:
    """Midpoint rule for the integral of e^g over the unit torus on an
    m x m grid offset by half a cell from the solver's nodes."""
    x = (np.arange(m) + 0.5) / m
    xx, yy = np.meshgrid(x, x, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    return float(np.mean(np.exp(g(pts))))


def check_exp_integral(g2, tol: float = 1e-10):
    err = exp_integral(g2) - 1.0
    return _result(abs(err) <= tol,
                   f"integral e^G2 - 1 = {err:+.1e} (tol {tol:.0e})")


def check_nonincreasing(trace):
    rises = [b - a for a, b in zip(trace, trace[1:]) if b > a]
    worst = max(rises) if rises else 0.0
    return _result(not rises, f"{len(trace)} energies, largest rise {worst:.1e}")


def check_decreasing(values):
    steps = [b - a for a, b in zip(values, values[1:])]
    return _result(all(s < 0.0 for s in steps),
                   f"largest step {max(steps):+.2e}" if steps else "one value")


# ---------------------------------------------------------------------------
# curved-metric descent
# ---------------------------------------------------------------------------

def unit_area_exponent(phi_raw: np.ndarray) -> np.ndarray:
    """Shift a conformal exponent so that the mean of e^phi is 1."""
    m = float(np.max(phi_raw))
    return phi_raw - m - math.log(float(np.mean(np.exp(phi_raw - m))))


def _wavenumbers(n: int):
    k = np.fft.fftfreq(n, d=1.0 / n) * 2.0 * math.pi
    return k[:, None], k[None, :]


def _log_mean_exp(v: np.ndarray) -> float:
    m = float(np.max(v))
    return m + math.log(float(np.mean(np.exp(v - m))))


def phi_eps_energy(u1: np.ndarray, u2: np.ndarray, eps: float,
                   phi: np.ndarray) -> float:
    """Phi_eps by the trapezoid rule, gradients by spectral derivatives
    (Nyquist derivative dropped), metric exponent phi on the grid."""
    n = u1.shape[0]
    kx, ky = _wavenumbers(n)
    kx[n // 2, 0] = 0.0
    ky[0, n // 2] = 0.0

    def grad(u):
        uh = np.fft.fft2(u)
        return (np.fft.ifft2(1j * kx * uh).real, np.fft.ifft2(1j * ky * uh).real)

    a, b = grad(u1), grad(u2)
    dirichlet = float(np.mean(a[0] ** 2 + a[1] ** 2 + b[0] ** 2 + b[1] ** 2
                              + a[0] * b[0] + a[1] * b[1])) / 3.0
    rho = 4.0 * math.pi - eps
    weight = np.exp(phi)
    return (dirichlet + rho * float(np.mean((u1 + u2) * weight))
            - rho * (_log_mean_exp(u1 + phi) + _log_mean_exp(u2 + phi)))


def el_residual(u1: np.ndarray, u2: np.ndarray, eps: float,
                phi: np.ndarray) -> float:
    """Sup over the grid of -Delta_g u_i - (2 rho e^{u_i} - rho e^{u_j} - rho)
    after normalizing each field to unit e^u dV_g mass, rho = 4 pi - eps,
    Delta_g = e^{-phi} Delta_0 with the spectral flat Laplacian."""
    n = u1.shape[0]
    kx, ky = _wavenumbers(n)
    rho = 4.0 * math.pi - eps
    v1 = u1 - _log_mean_exp(u1 + phi)
    v2 = u2 - _log_mean_exp(u2 + phi)
    worst = 0.0
    for a, b in ((v1, v2), (v2, v1)):
        lap = np.fft.ifft2(-(kx ** 2 + ky ** 2) * np.fft.fft2(a)).real
        res = -np.exp(-phi) * lap - (2.0 * rho * np.exp(a) - rho * np.exp(b)
                                     - rho)
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


def check_energy_matches(reported: float, own: float, tol: float = 1e-8):
    err = abs(reported - own)
    return _result(err <= tol, f"|E_reported - E_own| = {err:.1e} "
                               f"(tol {tol:.0e})")


def check_energies_agree(energies, zero_energy: float, tol: float = 1e-8):
    """Final energies of all starts agree and lie below Phi_eps(0)."""
    spread = max(energies) - min(energies)
    ok = spread <= tol and max(energies) < zero_energy
    return _result(ok, f"energies {min(energies):.10f}..{max(energies):.10f}, "
                       f"spread {spread:.1e} (tol {tol:.0e}), "
                       f"Phi(0) = {zero_energy:.1e}")


def check_el_residual(u1, u2, eps, phi, tol: float = 1e-4):
    res = el_residual(u1, u2, eps, phi)
    return _result(res < tol, f"EL residual {res:.2e} (tol {tol:.0e})")
