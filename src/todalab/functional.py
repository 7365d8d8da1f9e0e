"""The reduced two-field Toda functional and its Newton-CG minimizer.

Phi_eps, the form used throughout the concentration analysis, is

  Phi_eps(u1, u2) = (1/3) integral(|grad u1|^2 + |grad u2|^2
                                   + grad u1 . grad u2) dx
                    + (4 pi - eps) integral(u1 + u2) dV_g
                    - (4 pi - eps) [log integral e^{u1} dV_g
                                    + log integral e^{u2} dV_g].

It is the SU(3) Toda functional, with coupling matrix [[2, -1], [-1, 2]]
and both masses 4 pi - eps, under the substitution v1 = (2 u1 + u2)/3,
v2 = (u1 + 2 u2)/3; the test suite keeps that form as an oracle and
asserts the identity on random states.

Both Newton solves of the package, minimize_phi_eps here and the one-pole
Green solve in greens, minimize one family of functionals,

  E(u) = (1/2) sum_ij a_ij integral grad u_i . grad u_j dx
         + m sum_i integral u_i dV_g - m sum_i log integral e^{u_i} c dV_g,

and one class, CoupledEnergy, gives run_descent its energy, gradient,
Hessian-vector product, projection, stopping norm and ceiling.  Phi_eps
has no second formula: phi_eps, phi_eps_gradient and el_residual read
its value, gradient and Euler-Lagrange residual from phi_eps_functional,
the CoupledEnergy that minimize_phi_eps descends on.  The
minimizer is truncated Newton-CG: each step solves H p = -g by CG on
modes with the (I - Delta_0)^{-1} preconditioner, exits on negative
curvature, and is accepted by an Armijo test that tries the full step
first.  The energy in that test is read as E(u) + [E(v) - E(u)] around
the Newton iterate u, so it carries no cancellation.  Every iteration
renormalizes (harmless by shift invariance); run_descent keeps a blow-up
ceiling, stagnation detection and a nonincreasing energy trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import ConfigError, GridMismatchError, SolverError
from .geometry import Metric
from .spectral import ScalarField, TorusGrid

__all__ = [
    "TodaState", "DescentReport", "SolverOptions", "CoupledEnergy",
    "phi_eps", "phi_eps_functional", "phi_eps_gradient", "el_residual",
    "minimize_phi_eps",
]

FOUR_PI = 4.0 * np.pi


@dataclass(frozen=True)
class TodaState:
    """Tuple of fields with their mass parameters."""

    u: tuple[ScalarField, ...]
    masses: tuple[float, ...]

    def __post_init__(self):
        if len(self.u) != len(self.masses):
            raise ConfigError("one mass per field required")
        grids = {f.grid for f in self.u}
        if len(grids) != 1:
            raise GridMismatchError("all state fields must share one grid")

    @property
    def grid(self) -> TorusGrid:
        return self.u[0].grid

    @property
    def rank(self) -> int:
        return len(self.u)


# The flag each stop reason of run_descent raises (max_iter raises none):
# a run's converged, blown_up and stagnated are read from here.
_STOP_FLAG = {"grad_tol": "converged", "ceiling": "blown_up",
              "nondescent": "stagnated", "line_search": "stagnated",
              "stagnation": "stagnated", "max_iter": None}


class _StopFlags:
    """converged, blown_up and stagnated of a run, from its stop_reason."""

    @property
    def converged(self) -> bool:
        return _STOP_FLAG[self.stop_reason] == "converged"

    @property
    def blown_up(self) -> bool:
        return _STOP_FLAG[self.stop_reason] == "blown_up"

    @property
    def stagnated(self) -> bool:
        return _STOP_FLAG[self.stop_reason] == "stagnated"


@dataclass
class DescentReport(_StopFlags):
    """Outcome of a descent run, including the blow-up bookkeeping."""

    iterations: int
    energy_trace: list[float]
    grad_norm: float
    el_residual: float | None
    maxima: list[float]
    means: list[float]
    s: list[float | None]
    stop_reason: str

    def to_record(self) -> dict:
        rec = {
            "iterations": self.iterations,
            "energy_initial": self.energy_trace[0] if self.energy_trace else float("nan"),
            "energy_final": self.energy_trace[-1] if self.energy_trace else float("nan"),
            "grad_norm": self.grad_norm,
            "el_residual": self.el_residual,
            "blown_up": self.blown_up,
            "stagnated": self.stagnated,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
        }
        for i, (m, mb, si) in enumerate(zip(self.maxima, self.means, self.s), start=1):
            rec[f"max_u{i}"] = m
            rec[f"mean_u{i}"] = mb
            rec[f"s{i}"] = si
        return rec

    @classmethod
    def from_raw(cls, raw: "RawDescent", weight: np.ndarray,
                 el_residual: float | None = None,
                 blowup_ratios: bool = False) -> "DescentReport":
        """The report of a run_descent outcome: maxima and dV_g means of
        the final fields and, with blowup_ratios, s_i = 1 + mean_i / max_i
        where max_i > 0 (None elsewhere)."""
        maxima = [float(np.max(x)) for x in raw.state]
        means = [float(np.mean(x * weight)) for x in raw.state]
        s = [1.0 + mb / m if blowup_ratios and m > 0 else None
             for m, mb in zip(maxima, means)]
        return cls(iterations=raw.iterations, energy_trace=raw.energy_trace,
                   grad_norm=raw.grad_norm, el_residual=el_residual,
                   maxima=maxima, means=means, s=s,
                   stop_reason=raw.stop_reason)


@dataclass(frozen=True)
class SolverOptions:
    max_iter: int = 5000
    grad_tol: float = 1e-8
    ceiling: float = 40.0


# run_descent's line search halves s from 1 (_BACKTRACK) until the Armijo
# test with factor _ARMIJO holds, at most _MAX_BACKTRACKS times; a run of
# _STAGNATION_WINDOW accepted steps that each lower the energy by less
# than _STAGNATION_DECREASE stops it
_BACKTRACK = 0.5
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 60
_STAGNATION_WINDOW = 50
_STAGNATION_DECREASE = 1e-14

# el_residual's bound on |log integral e^{u_i} dV_g| of a normalized state
_NORM_TOL = 1e-6


def _check_eps(eps: float, allow_zero: bool = True) -> None:
    lo_ok = eps >= 0.0 if allow_zero else eps > 0.0
    if not (lo_ok and eps < FOUR_PI):
        raise ConfigError(f"eps must lie in {'[0' if allow_zero else '(0'}, 4 pi), got {eps}")


def phi_eps(u1: ScalarField, u2: ScalarField, eps: float, metric: Metric) -> float:
    """The reduced two-field functional at regularization eps: the energy
    of phi_eps_functional, the one minimize_phi_eps descends on."""
    _check_eps(eps)
    energy, _ = phi_eps_functional(metric, eps).energy_and_grad(
        np.stack([u1.values, u2.values]))
    return energy


def phi_eps_gradient(u1: ScalarField, u2: ScalarField, eps: float,
                     metric: Metric) -> tuple[ScalarField, ScalarField]:
    """L^2(dV_g) gradient fields of Phi_eps.

    A state with vanishing gradient and unit exponential integrals
    satisfies  -Delta_g u_i = (8 pi - 2 eps) e^{u_i}
                              - (4 pi - eps) e^{u_other} - (4 pi - eps).
    """
    _check_eps(eps)
    _, grads = phi_eps_functional(metric, eps).energy_and_grad(
        np.stack([u1.values, u2.values]))
    g = grads / metric.weight
    return ScalarField(u1.grid, g[0]), ScalarField(u1.grid, g[1])


def el_residual(u1: ScalarField, u2: ScalarField, eps: float,
                metric: Metric) -> float:
    """Sup-norm Euler-Lagrange residual of the normalized state.

    max over i of sup | -Delta_g u_i - [(8 pi - 2 eps) e^{u_i}
                                        - (4 pi - eps) e^{u_other}
                                        - (4 pi - eps)] |

    on the grid, with Delta_g u = e^{-phi} Delta_0 u pointwise: for
    a = (1/3)[[2, 1], [1, 2]] that is max |2 g_i - g_other| / w of
    phi_eps_functional's gradient, read from it here.
    """
    _check_eps(eps)
    energy = phi_eps_functional(metric, eps)
    u = np.stack([u1.values, u2.values])
    for drift in energy.log_normalizer(u).ravel():
        if abs(drift) > _NORM_TOL:
            raise ConfigError(
                f"state not normalized: log integral e^u dV_g = {drift:.3e}")
    _, grads = energy.energy_and_grad(u)
    g = grads / metric.weight
    return float(np.max(np.abs(2.0 * g - g[::-1])))


@dataclass
class RawDescent(_StopFlags):
    """Low-level descent outcome on raw arrays."""

    state: np.ndarray           # (F, n, n)
    energy_trace: list[float]
    iterations: int
    grad_norm: float
    stop_reason: str


# Newton-CG inner solve: relative and absolute residual targets, and a cap
# far above the iterations a step takes (the preconditioned Hessian is the
# identity plus a compact part, so CG converges fast): the three cosine:0.5
# starts of perfbench's minimize-curved (seed 1, n = 64) make 676 over 26
# Newton steps, 26 a step (4 to 38), and the one-pole Green solve 8 a
# step (48 over 6 steps at n = 64, 128 and 256), at two transforms each.
_CG_RTOL = 1e-10
_CG_ATOL = 1e-13
_CG_MAX_ITER = 200


def _newton_direction(grads, hvp, grid: TorusGrid) -> np.ndarray:
    """Truncated preconditioned CG for H p = -g on mean-free fields, run on
    modes (hvp takes and returns them); returns the direction's values.

    H's null space is the constants, so the residual's mode [0, 0] is
    zeroed at every iteration.  The preconditioner is a multiplier and
    inner products are Parseval sums, so hvp's two transforms are an
    iteration's only ones.  The residual target has an absolute floor: a
    purely relative one sits below round-off once g is small.  On
    p.Hp <= 0 it stops (Nocedal-Wright, ch. 7) with the iterate so far, or
    the preconditioned gradient if that happens at once."""
    weights, precond = grid.parseval, 1.0 / (1.0 - grid.laplacian)

    def dot(x, y):
        return float(np.sum(weights * np.real(x * np.conj(y))))

    r = -spectral.to_modes(np.asarray(grads))
    tol = max(_CG_RTOL * math.sqrt(dot(r, r)), _CG_ATOL)
    r[..., 0, 0] = 0.0
    x = np.zeros_like(r)
    z = precond * r
    p, rz = z, dot(r, z)
    for k in range(_CG_MAX_ITER):
        hp = hvp(p)
        curv = dot(p, hp)
        if curv <= 0.0:
            if k == 0:
                x = z
            break
        alpha = rz / curv
        x = x + alpha * p
        r = r - alpha * hp
        r[..., 0, 0] = 0.0
        if math.sqrt(dot(r, r)) <= tol:
            break
        z = precond * r
        rz_next = dot(r, z)
        p, rz = z + (rz_next / rz) * p, rz_next
    return spectral.to_values(x)


class CoupledEnergy:
    """The functional of both Newton solves on (F, n, n) stacks u,

      E(u) = (1/2) sum_ij a_ij integral grad u_i . grad u_j dx
             + m sum_i integral u_i dV_g
             - m sum_i log integral e^{u_i} c dV_g,

    with an F x F coupling a, a mass m, the metric weight w and a fixed
    positive factor c (Phi_eps: a = (1/3)[[2, 1], [1, 2]], m = 4 pi - eps,
    c = 1; the one-pole Green functional: a = [[1]], m = 8 pi, c = e^s).
    Its bound methods are what run_descent takes:

      energy_and_grad  E and the dx-gradients
                       g_i = -sum_j a_ij Delta_0 u_j + m (w - d_i),
                       d_i = e^{u_i} c w / mean(e^{u_i} c w);
      hessian          H h_i = -sum_j a_ij Delta_0 h_j
                               - m (d_i h_i - d_i <d_i, h_i>)
                       at the state, which becomes the anchor, on modes;
      project          u_i - log mean(e^{u_i} c w), which leaves E as it is;
      grad_norm        max |g / w|;
      ceiling          max u.

    Before the first anchor E is evaluated directly.  After it, E(v) is
    read as E(u) + [E(v) - E(u)] around the anchor u, the bracket formed
    from delta = v - u: the Dirichlet cross and square terms,
    m mean(delta_i w) and -m log1p(mean(d_i expm1(delta_i))), d_i at the
    anchor, so it carries no cancellation.  Near a minimizer a Newton step
    lowers E by far less than the round-off of E evaluated directly, and
    an Armijo test on the direct E could not tell that step from a rise.
    A trial so far off that e^{delta} overflows reads E = +-inf and is
    backtracked.
    """

    def __init__(self, grid: TorusGrid, coupling, mass: float,
                 weight: np.ndarray, factor=1.0):
        self.grid = grid
        self.coupling = np.asarray(coupling, dtype=float)
        self.mass = float(mass)
        self.weight = weight
        self.factor = factor
        self._anchor = None     # (E, u, modes of u, d) at the Newton iterate
        self._last = None       # (state, E, modes, d) of the last evaluation

    def _log_mean_and_density(self, u: np.ndarray):
        """log mean(e^{u_i} c w), shape (F, 1, 1), and the densities d_i,
        both max-shifted, so nothing overflows."""
        top = np.max(u, axis=(-2, -1), keepdims=True)
        e = np.exp(u - top) * self.factor * self.weight
        mean = np.mean(e, axis=(-2, -1), keepdims=True)
        # math.log per field: numpy's vectorized log may round differently
        logs = np.reshape([math.log(x) for x in mean.ravel()], mean.shape)
        return top + logs, e / mean

    def _couple(self, x: np.ndarray) -> np.ndarray:
        """sum_j a_ij x_j over an (F, n, n) stack."""
        return np.einsum("ij,j...->i...", self.coupling, x)

    def _dirichlet(self, um: np.ndarray, vm: np.ndarray) -> float:
        """sum_ij a_ij integral grad u_i . grad v_j dx from the modes
        (Parseval, the column weights carried by grid.dirichlet)."""
        pairs = np.real(np.sum((self.grid.dirichlet * um)[:, None]
                               * np.conj(vm)[None], axis=(-2, -1)))
        return float(np.sum(self.coupling * pairs))

    def _energy(self, u: np.ndarray, um: np.ndarray,
                log_mean: np.ndarray) -> float:
        m, w = self.mass, self.weight
        if self._anchor is None:
            return (0.5 * self._dirichlet(um, um)
                    + m * float(np.sum(np.mean(u * w, axis=(-2, -1))))
                    - m * float(np.sum(log_mean)))
        energy, base, base_modes, dens = self._anchor
        delta = u - base
        dm = spectral.to_modes(delta)
        change = (self._dirichlet(base_modes, dm)
                  + 0.5 * self._dirichlet(dm, dm))
        change += m * float(np.sum(np.mean(delta * w, axis=(-2, -1))))
        with np.errstate(over="ignore", divide="ignore"):
            log_ratio = np.log1p(np.mean(dens * np.expm1(delta), axis=(-2, -1)))
        change -= m * float(np.sum(log_ratio))
        return energy + change

    def energy_and_grad(self, state):
        """(E, dx-gradients (F, n, n)) at the state."""
        u = np.asarray(state, dtype=float)
        um = spectral.to_modes(u)
        log_mean, dens = self._log_mean_and_density(u)
        energy = self._energy(u, um, log_mean)
        lap = spectral.to_values(um * self.grid.laplacian)
        grads = -self._couple(lap) + self.mass * (self.weight - dens)
        self._last = (state, energy, um, dens)
        return energy, grads

    def hessian(self, state):
        """The Hessian-vector product at the state, a function of an
        (F, n, n/2 + 1) stack of direction modes that returns modes; the
        state becomes the anchor."""
        if self._last is None or self._last[0] is not state:
            self.energy_and_grad(state)
        _, energy, um, dens = self._last
        self._anchor = (energy, np.asarray(state, dtype=float), um, dens)
        dens_modes = spectral.to_modes(dens)

        def hvp(hm):
            # the density part by one to_values and one to_modes, with
            # <d_i, h_i> the mode [0, 0] of d_i h_i
            dhm = spectral.to_modes(dens * spectral.to_values(hm))
            return -self._couple(self.grid.laplacian * hm) - self.mass * (
                dhm - dens_modes * dhm[..., :1, :1])
        return hvp

    def log_normalizer(self, state) -> np.ndarray:
        """log mean(e^{u_i} c w) per field, shape (F, 1, 1)."""
        return self._log_mean_and_density(np.asarray(state, dtype=float))[0]

    def project(self, state) -> np.ndarray:
        u = np.asarray(state, dtype=float)
        return u - self.log_normalizer(u)

    def grad_norm(self, state, grads) -> float:
        return float(np.max(np.abs(grads / self.weight)))

    def ceiling(self, state) -> float:
        return float(np.max(state))


def phi_eps_functional(metric: Metric, eps: float) -> CoupledEnergy:
    """Phi_eps as a CoupledEnergy: a = (1/3)[[2, 1], [1, 2]],
    m = 4 pi - eps, c = 1."""
    return CoupledEnergy(metric.grid, ((2.0 / 3.0, 1.0 / 3.0),
                                       (1.0 / 3.0, 2.0 / 3.0)),
                         FOUR_PI - eps, metric.weight)


def run_descent(init, grid: TorusGrid, energy_and_grad, project,
                grad_norm_of, ceiling_of, opts: SolverOptions,
                hessian) -> RawDescent:
    """Truncated Newton-CG descent with Armijo backtracking.

    init is an (F, n, n) stack or a list of F (n, n) arrays;
    energy_and_grad(state) -> (E, dx-gradients);
    project(state) -> state (energy-neutral renormalization);
    grad_norm_of(state, grads) -> float used for the stopping test;
    ceiling_of(state) -> float compared against opts.ceiling;
    hessian(state) -> the Hessian-vector product at the state, a function
    of an (F, n, n/2 + 1) stack of direction modes that returns modes.  A
    CoupledEnergy's methods of these names are such a set.

    Each search direction is a truncated Newton-CG step
    (_newton_direction); the line search tries s = 1 first and halves s
    until the Armijo test holds.
    """
    state = project(np.array(init, dtype=float))
    energy, grads = energy_and_grad(state)
    if not np.isfinite(energy):
        raise SolverError("non-finite energy at the initial point", trace=[energy])
    trace = [energy]
    gnorm = grad_norm_of(state, grads)
    stagnant = 0
    reason = "max_iter"
    it = 0
    while it < opts.max_iter:
        if gnorm <= opts.grad_tol:
            reason = "grad_tol"
            break
        if ceiling_of(state) > opts.ceiling:
            reason = "ceiling"
            break
        direction = _newton_direction(grads, hessian(state), grid)
        slope = sum(float(np.mean(g * d)) for g, d in zip(grads, direction))
        if slope >= 0.0:
            reason = "nondescent"
            break
        s = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            trial = project(state + s * direction)
            e_trial, g_trial = energy_and_grad(trial)
            if not np.isfinite(e_trial):
                s *= _BACKTRACK
                continue
            if e_trial <= energy + _ARMIJO * s * slope:
                accepted = True
                break
            s *= _BACKTRACK
        it += 1
        if not accepted:
            reason = "line_search"
            break
        decrease = energy - e_trial
        state, energy, grads = trial, e_trial, g_trial
        trace.append(energy)
        gnorm = grad_norm_of(state, grads)
        if decrease < _STAGNATION_DECREASE:
            stagnant += 1
            if stagnant >= _STAGNATION_WINDOW:
                reason = "stagnation"
                break
        else:
            stagnant = 0
    else:
        if gnorm <= opts.grad_tol:
            reason = "grad_tol"
    if not np.isfinite(energy):
        raise SolverError("descent reached non-finite energy", trace=trace)
    return RawDescent(state=state, energy_trace=trace, iterations=it,
                      grad_norm=gnorm, stop_reason=reason)


def minimize_phi_eps(init: TodaState, eps: float, metric: Metric,
                     opts: SolverOptions | None = None
                     ) -> tuple[TodaState, DescentReport]:
    """Minimize Phi_eps from the given state by Newton-CG steps
    (run_descent with phi_eps_functional); eps must be positive and both
    masses 4 pi - eps, the only masses Phi_eps is defined for."""
    _check_eps(eps, allow_zero=False)
    opts = opts or SolverOptions()
    if init.rank != 2:
        raise ConfigError("the reduced functional takes exactly two fields")
    mass = FOUR_PI - eps
    if not all(abs(m - mass) <= 1e-12 * mass for m in init.masses):
        raise ConfigError(f"masses must both be 4 pi - eps = {mass!r}, "
                          f"got {init.masses}")
    grid = init.grid
    energy = phi_eps_functional(metric, eps)
    raw = run_descent([f.values for f in init.u], grid,
                      energy.energy_and_grad, energy.project,
                      energy.grad_norm, energy.ceiling, opts, energy.hessian)
    final = TodaState(u=tuple(ScalarField(grid, x) for x in raw.state),
                      masses=init.masses)
    resid = None if raw.blown_up else el_residual(*final.u, eps, metric)
    return final, DescentReport.from_raw(raw, metric.weight, resid,
                                         blowup_ratios=True)
