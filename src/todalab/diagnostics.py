"""Blow-up diagnostics: rescaled-profile comparison and eps sweeps.

A minimizing family either stays bounded or concentrates, and the two
concentration patterns are distinguished by which field maxima diverge
and whether they separate.  The sweep driver runs the minimizer over a
decreasing list of regularization parameters and classifies the outcome
from the recorded maxima; the profile check measures how close the
rescaled field is to the standard bubble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .bubble import bubble_profile_r
from .errors import ConfigError, ResolutionError, SolverError
from .functional import (DescentReport, SolverOptions, TodaState,
                         minimize_phi_eps)
from .geometry import Metric
from .spectral import ScalarField

__all__ = [
    "SweepRecord", "rescaled_profile_error", "sweep",
]

FOUR_PI = 4.0 * math.pi
# classification thresholds
GROW_DELTA = 2.0       # max increase over the last three runs
SEPARATE_CELLS = 8.0   # peak separation threshold, in cells
PROFILE_L = 5.0        # radius of the rescaled-profile comparison


def rescaled_profile_error(u: ScalarField, center, m: float,
                           eps_scale: float, L: float) -> float:
    """Sup distance on B_L between the rescaled field and the bubble.

    The field is sampled at center + eps_scale * x for |x| <= L by
    band-limited (trigonometric) interpolation, shifted by the peak
    height m, and compared with the radial bubble profile.
    """
    h = 1.0 / u.grid.n
    if eps_scale < 4.0 * h:
        raise ResolutionError(
            f"rescaled width {eps_scale:.3e} below 4h = {4 * h:.3e}; "
            "the bubble core is not resolvable on this grid")
    center = np.asarray(center, dtype=float)
    radii = np.linspace(0.0, L, 33)[1:]
    angles = np.linspace(0.0, 2.0 * math.pi, 49)[:-1]
    rr, aa = np.meshgrid(radii, angles, indexing="ij")
    offsets = np.stack([(rr * np.cos(aa)).ravel(),
                        (rr * np.sin(aa)).ravel()], axis=1)
    pts = np.vstack([center[None, :], center[None, :] + eps_scale * offsets])
    vals = spectral.eval_at(u, pts)
    ref = np.concatenate([[0.0], bubble_profile_r(rr.ravel())])
    return float(np.max(np.abs(vals - m - ref)))


@dataclass
class SweepRecord:
    """One sweep entry: solver outcome plus classification bookkeeping."""

    eps: float
    report: DescentReport | None
    r: list[float]
    max_locations: list[np.ndarray]
    profile_error: float | None
    profile_resolved: bool
    classification: str
    error: str | None = None

    def to_record(self) -> dict:
        rec = {"eps": self.eps, "classification": self.classification,
               "profile_error": self.profile_error,
               "profile_resolved": self.profile_resolved,
               "error": self.error or ""}
        for i, ri in enumerate(self.r, start=1):
            rec[f"r{i}"] = ri
        for i, loc in enumerate(self.max_locations, start=1):
            rec[f"x{i}"], rec[f"y{i}"] = float(loc[0]), float(loc[1])
        if self.report is not None:
            rec.update(self.report.to_record())
        return rec


def _zero_state(grid, eps: float) -> TodaState:
    mass = FOUR_PI - eps
    return TodaState(u=(ScalarField.constant(grid, 0.0),
                        ScalarField.constant(grid, 0.0)),
                     masses=(mass, mass))


def _argmax_location(f: ScalarField) -> np.ndarray:
    i, j = np.unravel_index(int(np.argmax(f.values)), f.values.shape)
    return np.array([i / f.grid.n, j / f.grid.n])


def _torus_dist(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(spectral.wrap_offset(a - b)))


def _grew(maxima_hist: list, which: int, delta: float) -> bool:
    if len(maxima_hist) < 3:
        return False
    window = [m[which] for m in maxima_hist[-3:]]
    return window[-1] - window[0] > delta


def _classify(maxima_hist, record: SweepRecord, h: float) -> str:
    if record.report is None:
        return "undetermined"
    grew1 = _grew(maxima_hist, 0, GROW_DELTA)
    grew2 = _grew(maxima_hist, 1, GROW_DELTA)
    if not grew1 and not grew2:
        return "undetermined" if record.report.blown_up else "converged"
    if grew1 and grew2:
        sep = _torus_dist(record.max_locations[0], record.max_locations[1])
        return "case1-like" if sep > SEPARATE_CELLS * h else "undetermined"
    return "case2-like"


def sweep(eps_list, metric: Metric, solver: SolverOptions | None = None
          ) -> list[SweepRecord]:
    """Minimize over a decreasing eps list, warm-starting each run from
    the last successful one.

    Solver failures are recorded in their entry and the sweep moves on;
    classification looks at growth of the field maxima over the last
    three runs and at whether the two peaks separate.
    """
    eps_list = [float(e) for e in eps_list]
    if not eps_list:
        raise ConfigError("empty eps list")
    if any(e <= 0.0 or e >= FOUR_PI for e in eps_list):
        raise ConfigError("sweep eps values must lie in (0, 4*pi)")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("sweep eps list must be strictly decreasing")

    grid = metric.grid
    h = 1.0 / grid.n
    records: list[SweepRecord] = []
    maxima_hist: list[list[float]] = []
    state = _zero_state(grid, eps_list[0])
    for eps in eps_list:
        init = TodaState(u=state.u, masses=(FOUR_PI - eps, FOUR_PI - eps))
        try:
            final, report = minimize_phi_eps(init, eps, metric, solver)
        except SolverError as exc:
            rec = SweepRecord(eps=eps, report=None, r=[],
                              max_locations=[], profile_error=None,
                              profile_resolved=False,
                              classification="undetermined", error=str(exc))
            records.append(rec)
            continue
        state = final
        locs = [_argmax_location(f) for f in final.u]
        rvals = [math.exp(-m / 2.0) for m in report.maxima]
        lead = int(np.argmax(report.maxima))
        m_lead = report.maxima[lead]
        perr, resolved = None, False
        try:
            perr = rescaled_profile_error(final.u[lead], locs[lead], m_lead,
                                          math.exp(-m_lead / 2.0), PROFILE_L)
            resolved = True
        except ResolutionError:
            pass
        rec = SweepRecord(eps=eps, report=report, r=rvals,
                          max_locations=locs, profile_error=perr,
                          profile_resolved=resolved, classification="")
        maxima_hist.append(list(report.maxima))
        rec.classification = _classify(maxima_hist, rec, h)
        records.append(rec)
    return records

