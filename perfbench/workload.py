"""One benchmark workload in one process: set up, run rounds, check, report.

Started by run.py, which passes the CLOCK_MONOTONIC time it started this
process at (--t0), so that set-up time counts the interpreter start and
the imports.  Prints provenance lines, then one JSON object as the last
line of standard output.

A round runs the workload's program calls once on the same inputs;
rounds repeat while another one is expected to end within --seconds
(at least one).  Every round's outputs are checked (checks.py) after
the last round ends.  With --trace 1 the first round runs untraced, as the
baseline of the tracing overhead, and the later rounds are traced.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import checks
import todalab
from todalab import bubble, functional, geometry, greens, testfn
from todalab.functional import SolverOptions, TodaState
from todalab.spectral import ScalarField, TorusGrid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

perf = time.perf_counter


class Round:
    """Timings and outputs of one round."""

    def __init__(self):
        self.wall = 0.0
        self.solves: list[float] = []
        self.out: dict = {}


def _run_round(workload) -> Round:
    r = Round()
    t0 = perf()
    workload.round(r)
    r.wall = perf() - t0
    return r


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class DeficitTwoPole:
    """Criterion 9's computation on the flat torus: the two-pole pair,
    its expansions, and the deficit fit over five prescribed and three
    tail couplings.  The pair is solved five times per round (about
    30 ms each, too short to time once); the fit uses the last.  The
    inputs do not depend on the seed."""

    n = 128
    poles = ((0.25, 0.25), (0.75, 0.75))
    tails = (10.0 ** -4.5, 1e-5, 10.0 ** -5.5)
    solves = 5

    def __init__(self, seed: int):
        self.metric = geometry.make_flat_torus(self.n)
        self.eps_list = tuple(testfn.DEFAULT_EPS_LIST) + self.tails
        self.ops = self.solves + len(self.eps_list)
        self._c_ref = None

    def round(self, r: Round) -> None:
        pairs = []
        for _ in range(self.solves):
            t = perf()
            pair = greens.green_pair_case1(*self.poles, self.metric)
            greens.extract_expansions(pair)
            r.solves.append(perf() - t)
            pairs.append(pair)
        r.out["pairs"] = pairs
        r.out["fit"] = testfn.asymptotic_fit_case1(pairs[-1], self.metric,
                                                   self.eps_list)

    def check(self, out: dict):
        if self._c_ref is None:
            self._c_ref = checks.closing_constant_square_torus()
        ops = []
        for pair in out["pairs"]:
            c = bubble.lower_bound_case1(pair.expansions[(1, 0)].A,
                                         pair.expansions[(2, 1)].A)
            ops.append(("solve",) + checks.check_closing_constant(
                c, self._c_ref))
        fit = out["fit"]
        for row in fit.rows:
            tail = row["eps"] < min(testfn.DEFAULT_EPS_LIST)
            ops.append((f"phi0 eps={row['eps']:.3g}",)
                       + checks.check_deficit_row(row["phi0"], self._c_ref,
                                                  tail))
        whole = [("fit",) + checks.check_deficit_slope(fit.fitted_slope,
                                                       fit.slope_stderr)]
        return ops, whole


class GreenOnePole:
    """Criterion 10's pipeline on the flat torus: the nonlinear one-pole
    pair, its expansions and the fit over the five prescribed couplings.
    The seed picks the points of the finite-difference and reflection
    checks."""

    n = 64
    pole = np.array([0.5, 0.5])

    def __init__(self, seed: int):
        self.metric = geometry.make_flat_torus(self.n)
        rng = np.random.default_rng(seed)
        self.fd_points = self._off_pole(rng, 64, 0.15)
        self.reflect_disp = self._off_pole(rng, 64, 0.05) - self.pole
        self.ops = 1 + len(testfn.DEFAULT_EPS_LIST)

    def _off_pole(self, rng, count: int, margin: float) -> np.ndarray:
        pts = rng.random((8 * count, 2))
        d = (pts - self.pole + 0.5) % 1.0 - 0.5
        keep = np.hypot(d[:, 0], d[:, 1]) > margin
        return pts[keep][:count]

    def round(self, r: Round) -> None:
        t = perf()
        pair = greens.green_pair_case2(self.pole, self.metric)
        greens.extract_expansions(pair)
        r.solves.append(perf() - t)
        r.out["pair"] = pair
        r.out["fit"] = testfn.asymptotic_fit_case2(pair, self.metric,
                                                   testfn.DEFAULT_EPS_LIST)

    def check(self, out: dict):
        pair = out["pair"]
        d = pair.descent
        g1, g2 = pair.G1.eval, pair.G2.eval
        parts = [
            (d.converged, f"descent {d.stop_reason} after {d.iterations} "
                          f"iterations"),
            checks.check_nonincreasing(d.energy_trace),
            checks.check_one_pole_residuals(g1, g2, self.fd_points),
            checks.check_reflections(g1, g2, self.pole, self.reflect_disp),
            checks.check_exp_integral(g2),
        ]
        ops = [("solve", all(ok for ok, _ in parts),
                "; ".join(msg for _, msg in parts))]
        values = [row["phi0"] for row in out["fit"].rows]
        for k, row in enumerate(out["fit"].rows):
            ok, msg = checks.check_decreasing(values[max(k - 1, 0):k + 1])
            ok = ok and math.isfinite(row["phi0"])
            ops.append((f"phi0 eps={row['eps']:.3g}", ok, msg))
        return ops, []


class MinimizeCurved:
    """minimize_phi_eps on the CLI's cosine:0.5 metric (unit area) at
    eps = 1 from three smooth starts.  Each start is a fixed smooth
    profile plus a seeded smooth perturbation a tenth its size: fully
    random starts take 2.9k to 4.2k iterations, which spreads the time
    per start across seeds by more than its bound."""

    n = 64
    amplitude = 0.5
    eps = 1.0
    starts = 3
    options = SolverOptions(grad_tol=1e-5, max_iter=100_000)
    profile_seed = 20_190_000   # fixes the profiles, not the perturbations

    def __init__(self, seed: int):
        grid = TorusGrid(self.n)
        x, y = grid.mesh()
        self.phi_raw = self.amplitude * np.cos(2 * np.pi * x) \
            * np.cos(2 * np.pi * y)
        self.metric = geometry.make_conformal_metric(
            ScalarField(grid, self.phi_raw))
        base = np.random.default_rng(self.profile_seed)
        pert = np.random.default_rng(seed)
        self.init = []
        for _ in range(self.starts):
            self.init.append(tuple(
                _smooth_field(base, x, y, 1.0) + _smooth_field(pert, x, y, 0.1)
                for _ in range(2)))
        self.grid = grid
        self.ops = self.starts

    def round(self, r: Round) -> None:
        mass = 4.0 * math.pi - self.eps
        finals = []
        for u1, u2 in self.init:
            t = perf()
            state = TodaState(u=(ScalarField(self.grid, u1),
                                 ScalarField(self.grid, u2)),
                              masses=(mass, mass))
            final, report = functional.minimize_phi_eps(
                state, self.eps, self.metric, self.options)
            r.solves.append(perf() - t)
            finals.append((final, report))
        r.out["finals"] = finals

    def check(self, out: dict):
        phi = checks.unit_area_exponent(self.phi_raw)
        zero = np.zeros_like(phi)
        ops, energies = [], []
        for j, (final, report) in enumerate(out["finals"]):
            u1, u2 = (f.values for f in final.u)
            own = checks.phi_eps_energy(u1, u2, self.eps, phi)
            energies.append(own)
            parts = [
                (report.converged and report.stop_reason == "grad_tol",
                 f"stop {report.stop_reason} after {report.iterations}"),
                checks.check_nonincreasing(report.energy_trace),
                checks.check_energy_matches(report.energy_trace[-1], own),
                checks.check_el_residual(u1, u2, self.eps, phi),
            ]
            ops.append((f"start {j}", all(ok for ok, _ in parts),
                        "; ".join(msg for _, msg in parts)))
        zero_energy = checks.phi_eps_energy(zero, zero, self.eps, phi)
        whole = [("energies",) + checks.check_energies_agree(energies,
                                                             zero_energy)]
        return ops, whole


def _smooth_field(rng, x, y, scale: float) -> np.ndarray:
    """Sum of cosines with wave vectors |k|_inf <= 3, amplitude
    scale / |k|^2 and random phases."""
    out = np.zeros_like(x)
    for a in range(-3, 4):
        for b in range(0, 4):
            if b == 0 and a <= 0:
                continue
            phase = rng.uniform(0.0, 2.0 * math.pi)
            out += scale / (a * a + b * b) * np.cos(
                2.0 * math.pi * (a * x + b * y) + phase)
    return out


WORKLOADS = {
    "deficit-two-pole": DeficitTwoPole,
    "green-one-pole": GreenOnePole,
    "minimize-curved": MinimizeCurved,
}


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count the bundled OpenBLAS reports, or None."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def provenance() -> dict:
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "todalab": todalab.__file__,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="CLOCK_MONOTONIC time this process was started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(todalab.__file__), src]) != src:
        print(f"todalab imported from {todalab.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.active = True
    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    layers, setup_layers = [], {}
    if tracer is not None:
        tracer.active = False
        setup_layers = tracer.totals(0)

    # Rounds first, checks after: the checks' own evaluations must not
    # count in the peak memory of the program calls.
    rounds: list[Round | None] = []
    errors: dict[int, str] = {}
    traced_walls: list[float] = []
    start = perf()
    while True:
        t_round = perf()
        traced = tracer is not None and len(rounds) > 0
        if traced:
            mark, counts = tracer.mark(), dict(tracer.counts)
            tracer.active = True
        try:
            r = _run_round(workload)
        except Exception as exc:  # a failed round fails all its operations
            r = None
            errors[len(rounds)] = f"{type(exc).__name__}: {exc}"
        if traced:
            tracer.active = False
            layers.append(spans.layer_metrics(tracer, mark, counts))
            if r is not None:
                traced_walls.append(r.wall)
        rounds.append(r)
        last = perf() - t_round
        if tracer is not None and not traced_walls and r is not None:
            continue            # the traced run needs one traced round
        if perf() - start + last > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = workload.ops * len(rounds)
    failed = workload.ops * len(errors)
    correct = True
    report_checks = []
    for k, r in enumerate(rounds):
        if r is None:
            report_checks.append({"round": k, "error": errors[k]})
            continue
        ops, whole = workload.check(r.out)
        r.out = None
        failed += sum(1 for _, ok, _ in ops if not ok)
        correct = correct and all(ok for _, ok, _ in whole)
        report_checks.append({
            "round": k,
            "ops": [[name, ok, msg] for name, ok, msg in ops],
            "whole": [[name, ok, msg] for name, ok, msg in whole]})

    good = [r for r in rounds if r is not None]
    untraced = good[:1] if tracer is not None else good
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "attempted": attempted, "failed": failed,
        "correct": correct,
        "setup_s": setup_s,
        "wall_s": _median([r.wall for r in untraced]),
        "solve_s": _median([s for r in untraced for s in r.solves]),
        "peak_rss_mb": peak_rss_mb,
        "checks": report_checks,
        "provenance": provenance(),
    }
    if tracer is not None:
        # median_low keeps counts whole: it is one round's value
        per_layer = {key: statistics.median_low([lay[key] for lay in layers])
                     for key in layers[0]} if layers else {}
        per_layer["geometry.make_conformal_metric.s"] = setup_layers.get(
            "geometry.make_conformal_metric", {}).get("s", 0.0)
        per_layer["trace.overhead_s"] = (_median(traced_walls)
                                         - result["wall_s"]
                                         if traced_walls else 0.0)
        result["per_layer"] = per_layer
        tracer.write(os.path.join(
            ROOT, "perfbench", "out",
            f"trace-{args.workload}-seed{args.seed}.json"),
            {k: result[k] for k in ("workload", "seed", "rounds",
                                    "provenance")})
    print("provenance " + json.dumps(result["provenance"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
