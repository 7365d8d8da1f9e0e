"""Command-line front end: config parsing, orchestration, reports.

Subcommands: verify | solve | green | testfn | sweep.  Configuration is
a flat key=value file with dotted keys; reports embed the config hash
and the tolerances they were produced under, and contain no timestamps
so identical inputs yield byte-identical outputs.

Exit codes: 0 success, 1 verification failure, 2 numerical failure,
64 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import bubble, diagnostics, testfn
from .errors import (ConfigError, DataError, GeometryError,
                     GridMismatchError, ResolutionError, TodalabError)
from .functional import SolverOptions, TodaState, minimize_phi_eps
from .geometry import Metric, make_conformal_metric, make_flat_torus, \
    load_conformal_metric
from .greens import green_pair_case1, green_pair_case2, extract_expansions
from .spectral import ScalarField, TorusGrid, save_field

__all__ = ["main", "RunConfig", "parse_config"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_NUMERICAL = 2
EXIT_CONFIG = 64

_DEFAULTS = {
    "grid.n": "256",
    "metric.kind": "flat",
    "eps": "",
    "masses": "",
    "points": "",
    "seed": "0",
    "solver.max_iter": "5000",
    "solver.grad_tol": "1e-8",
    "solver.ceiling": "40.0",
    "testfn.eps_list": ",".join(map(repr, testfn.DEFAULT_EPS_LIST)),
    "testfn.L_coupling": "auto",
    "sweep.eps_list": "1.0,0.5,0.25,0.1,0.05",
    "output.dir": ".",
    "output.format": "json",
}


class RunConfig:
    """Validated flat-key configuration with its canonical hash."""

    def __init__(self, entries: dict):
        unknown = sorted(set(entries) - set(_DEFAULTS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        merged = dict(_DEFAULTS)
        merged.update(entries)
        self.entries = merged
        canon = "\n".join(f"{k}={merged[k]}" for k in sorted(merged))
        self.digest = hashlib.sha256(canon.encode()).hexdigest()

        self.grid = TorusGrid(self._int("grid.n"))
        self.n = self.grid.n
        self.metric_kind = merged["metric.kind"]
        if self.metric_kind.startswith("file="):
            path = self.metric_kind[5:]
            if not os.path.isfile(path):
                raise ConfigError(f"metric file {path!r} is not a regular file")
        elif self.metric_kind.startswith("cosine:"):
            _finite(self.metric_kind[len("cosine:"):], "cosine metric amplitude")
        elif self.metric_kind != "flat":
            raise ConfigError(
                f"metric.kind must be flat, file=<path>, or cosine:<amp>; "
                f"got {self.metric_kind!r}")
        self.eps = self._float("eps") if merged["eps"] else None
        self.masses = self._float_list("masses") if merged["masses"] else None
        self.points = self._points("points") if merged["points"] else []
        self.seed = self._int("seed")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        self.solver = SolverOptions(
            max_iter=self._int("solver.max_iter"),
            grad_tol=self._float("solver.grad_tol"),
            ceiling=self._float("solver.ceiling"))
        if self.solver.max_iter < 1:
            raise ConfigError(f"solver.max_iter must be at least 1, got "
                              f"{self.solver.max_iter}")
        if self.solver.grad_tol <= 0.0:
            raise ConfigError(f"solver.grad_tol must be positive, got "
                              f"{self.solver.grad_tol}")
        if self.solver.ceiling <= 0.0:
            # a normalized state (integral e^u dV_g = 1) has max u >= 0
            raise ConfigError(f"solver.ceiling must be positive, got "
                              f"{self.solver.ceiling}")
        self.testfn_eps = self._float_list("testfn.eps_list")
        if any(e <= 0.0 for e in self.testfn_eps):
            raise ConfigError("testfn.eps_list values must be positive")
        if any(b >= a for a, b in zip(self.testfn_eps, self.testfn_eps[1:])):
            raise ConfigError("testfn.eps_list must be strictly decreasing")
        self.L_mode = merged["testfn.L_coupling"]
        if self.L_mode != "auto" and not self.L_mode.startswith("fixed:"):
            raise ConfigError("testfn.L_coupling must be auto or fixed:<L>")
        self.L_fixed = (None if self.L_mode == "auto" else
                        _finite(self.L_mode[len("fixed:"):], "testfn.L_coupling"))
        if self.L_fixed is not None and self.L_fixed <= 0.0:
            raise ConfigError(f"testfn.L_coupling must be positive, got "
                              f"{self.L_fixed}")
        self.sweep_eps = self._float_list("sweep.eps_list")
        self.out_dir = merged["output.dir"]
        self.fmt = merged["output.format"]
        if self.fmt not in ("json", "csv"):
            raise ConfigError(f"output.format must be json or csv, got {self.fmt!r}")

    def _int(self, key: str) -> int:
        try:
            return int(self.entries[key])
        except ValueError as exc:
            raise ConfigError(f"{key} must be an integer: {exc}") from None

    def _float(self, key: str) -> float:
        return _finite(self.entries[key], key)

    def _float_list(self, key: str) -> list[float]:
        return [_finite(t, key) for t in self.entries[key].split(",")
                if t.strip()]

    def _points(self, key: str) -> list[np.ndarray]:
        out = []
        for part in self.entries[key].split(";"):
            part = part.strip()
            if not part:
                continue
            coords = part.split(",")
            if len(coords) != 2:
                raise ConfigError(f"point {part!r} is not x,y")
            p = np.array([_finite(c, f"point {part!r}") for c in coords])
            if np.any(p < 0.0) or np.any(p >= 1.0):
                raise ConfigError(f"point {part!r} outside [0,1)^2")
            out.append(p)
        return out

    def metric(self) -> Metric:
        if self.metric_kind == "flat":
            return make_flat_torus(self.n)
        if self.metric_kind.startswith("file="):
            metric = load_conformal_metric(self.metric_kind[5:])
            if metric.grid.n != self.n:
                raise ConfigError(
                    f"metric file grid n={metric.grid.n} does not match "
                    f"grid.n={self.n}")
            return metric
        amp = float(self.metric_kind.split(":", 1)[1])
        X, Y = self.grid.mesh()
        phi = ScalarField(self.grid, amp * np.cos(2 * np.pi * X)
                          * np.cos(2 * np.pi * Y))
        return make_conformal_metric(phi)


def _finite(text: str, what: str) -> float:
    """A finite float, or a ConfigError naming `what`."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{what}: {text.strip()!r} is not a finite number")
    return value


def parse_config(path) -> RunConfig:
    entries = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                entries[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return RunConfig(entries)


def _report_header(cfg: RunConfig) -> dict:
    return {"config_sha256": cfg.digest, "grid_n": cfg.n,
            "metric_kind": cfg.metric_kind}


def _csv_cells(record: dict) -> dict:
    """A report record as CSV cells: a nested record (the one-point
    pair's descent) becomes one <key>_<field> column per field."""
    cells = {}
    for k, v in record.items():
        cells.update({f"{k}_{f}": x for f, x in v.items()}
                     if isinstance(v, dict) else {k: v})
    return cells


def _write_report(cfg: RunConfig, name: str, payload: dict,
                  rows_key: str | None = None) -> str:
    if cfg.fmt == "json":
        path = os.path.join(cfg.out_dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path
    path = os.path.join(cfg.out_dir, f"{name}.csv")
    scalar = {k: v for k, v in payload.items() if k != rows_key}
    rows = [_csv_cells({**scalar, **row})
            for row in (payload[rows_key] if rows_key else [payload])]
    keys = list(dict.fromkeys(k for row in rows for k in row))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return path


# --- verify -----------------------------------------------------------

def _integral(f, a: float, b: float, geometric: bool = False) -> float:
    """integral of f over [a, b] by 20-point Gauss-Legendre on 8 panels,
    of equal width or (geometric) in geometric progression."""
    edges = (np.geomspace if geometric else np.linspace)(a, b, 9)
    nodes, weights = testfn._panel_nodes(edges, 20)
    return float(np.sum(f(nodes) * weights))


def _verify_checks(cfg: RunConfig, perturb: bool) -> list[dict]:
    checks = []
    fault = 1e-3 if perturb else 0.0

    def add(name, computed, reference, tol, kind="rel"):
        if kind == "rel":
            err = abs(computed - reference) / max(abs(reference), 1e-300)
        else:
            err = abs(computed - reference)
        checks.append({"check": name, "computed": computed,
                       "reference": reference, "error": err,
                       "tolerance": tol, "kind": kind,
                       "passed": bool(err < tol)})

    for L in (0.5, 1.0, 2.0, 5.0, 10.0):
        integrand = lambda r: (16.0 * math.pi ** 2 * r ** 2
                               / (1.0 + math.pi * r ** 2) ** 2) * 2.0 * math.pi * r
        add(f"bubble_energy_L{L}", _integral(integrand, 0.0, L) + fault,
            bubble.bubble_dirichlet_energy(L), 1e-8)
        fault = 0.0  # fault injection hits the first check only

        mass_int = lambda r: np.exp(-2.0 * np.log1p(math.pi * r * r)) \
            * 2.0 * math.pi * r
        add(f"bubble_mass_L{L}", _integral(mass_int, 0.0, L),
            bubble.bubble_mass(L), 1e-10)
    add("bubble_mass_limit", bubble.bubble_mass(1e3), 1.0, 1e-6, kind="abs")

    rng = np.random.default_rng(cfg.seed)
    pts = rng.uniform(-30.0, 30.0, size=(10 ** 5, 2))
    resid = float(np.max(np.abs(bubble.bubble_pde_residual(pts))))
    add("bubble_pde_sup_residual", resid, 0.0, 1e-5, kind="abs")

    for trial in range(5):
        a, b = rng.uniform(-2.0, 2.0, size=2)
        rho = rng.uniform(0.005, 0.02)
        delta = rng.uniform(0.1, 0.3)
        prob = bubble.CapacityProblem(a=a, b=b, rho=rho, delta=delta)
        slope = (a - b) / math.log(rho / delta)
        energy_int = lambda r: 2.0 * math.pi * r * (slope / r) ** 2
        add(f"capacity_trial{trial}",
            _integral(energy_int, rho, delta, geometric=True),
            bubble.capacity_energy(prob), 1e-6)

    metric = make_flat_torus(256)
    pair = green_pair_case1(np.array([0.25, 0.25]), np.array([0.75, 0.75]),
                            metric)
    extract_expansions(pair)
    for k in (1, 2):
        for i in (0, 1):
            e = pair.expansions[(k, i)]
            add(f"quadratic_trace_G{k}_p{i + 1}", e.alpha + e.beta,
                2.0 * math.pi, 1e-10, kind="abs")
    return checks


def cmd_verify(cfg: RunConfig, perturb: bool) -> int:
    checks = _verify_checks(cfg, perturb)
    payload = {**_report_header(cfg), "checks": checks,
               "passed": all(c["passed"] for c in checks)}
    path = _write_report(cfg, "verify", payload, rows_key="checks")
    failed = [c["check"] for c in checks if not c["passed"]]
    if failed:
        print(f"verify: FAIL ({', '.join(failed)}); report: {path}")
        return EXIT_VERIFY_FAIL
    print(f"verify: ok ({len(checks)} checks); report: {path}")
    return EXIT_OK


# --- solve ------------------------------------------------------------

def cmd_solve(cfg: RunConfig) -> int:
    eps = cfg.eps
    if cfg.masses is not None:
        if eps is not None:
            raise ConfigError("solve takes eps or masses, not both")
        if len(cfg.masses) != 2 or cfg.masses[0] != cfg.masses[1]:
            raise ConfigError("the reduced solve takes two equal masses")
        if cfg.masses[0] > 4.0 * math.pi:
            raise ConfigError(f"masses exceed 4*pi, so eps = 4*pi - mass "
                              f"< 0 (mass {cfg.masses[0]})")
        eps = 4.0 * math.pi - cfg.masses[0]
    if eps is None:
        raise ConfigError("solve requires eps (or masses) in the config")
    if eps <= 0.0:
        raise ConfigError(f"solve requires eps > 0, got {eps}")
    metric = cfg.metric()
    grid = metric.grid
    zero = ScalarField.constant(grid, 0.0)
    init = TodaState(u=(zero, zero),
                     masses=(4.0 * math.pi - eps, 4.0 * math.pi - eps))
    final, report = minimize_phi_eps(init, eps, metric, cfg.solver)
    payload = {**_report_header(cfg), "eps": eps,
               "grad_tol": cfg.solver.grad_tol, **report.to_record()}
    path = _write_report(cfg, "solve", payload)
    for i, f in enumerate(final.u, start=1):
        save_field(os.path.join(cfg.out_dir, f"u{i}.txt"), f)
    print(f"solve: {report.stop_reason} after {report.iterations} iterations; "
          f"report: {path}")
    if not report.converged:
        print(f"numerical failure: solve did not converge "
              f"({report.stop_reason})", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# --- green ------------------------------------------------------------

def _build_pair(cfg: RunConfig, metric: Metric):
    if len(cfg.points) == 2:
        return green_pair_case1(cfg.points[0], cfg.points[1], metric)
    if len(cfg.points) == 1:
        return green_pair_case2(cfg.points[0], metric, cfg.solver)
    raise ConfigError("green/testfn need one point (single-site case) or "
                      "two points (separated case) in the config")


def cmd_green(cfg: RunConfig) -> int:
    metric = cfg.metric()
    pair = _build_pair(cfg, metric)
    extract_expansions(pair)
    rows = []
    for (k, i), e in sorted(pair.expansions.items()):
        c = pair.charts[i]
        rows.append({"field": k, "point_index": i, "x": c.center[0],
                     "y": c.center[1], "a": e.a, "A": e.A, "lambda": e.lam,
                     "mu": e.mu, "alpha": e.alpha, "beta": e.beta,
                     "gamma": e.gamma, "alpha_plus_beta": e.alpha + e.beta,
                     "scale": c.scale})
    payload = {**_report_header(cfg), "case": pair.case_tag,
               "expansions": rows}
    if pair.case_tag == "two":
        payload["mean_G2"] = pair.mean_G2
        payload["descent"] = pair.descent.to_record()
    path = _write_report(cfg, "green", payload, rows_key="expansions")
    print(f"green: case {pair.case_tag}, {len(rows)} expansions; "
          f"report: {path}")
    if pair.descent is not None and not pair.descent.converged:
        print(f"numerical failure: one-point pair did not converge "
              f"({pair.descent.stop_reason})", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# --- testfn -----------------------------------------------------------

def cmd_testfn(cfg: RunConfig) -> int:
    metric = cfg.metric()
    pair = _build_pair(cfg, metric)
    if cfg.L_mode == "auto":
        if pair.case_tag == "one":
            rep = testfn.asymptotic_fit_case1(pair, metric, cfg.testfn_eps)
        else:
            rep = testfn.asymptotic_fit_case2(pair, metric, cfg.testfn_eps)
        rows = rep.to_records()
        payload = {**_report_header(cfg), "case": pair.case_tag,
                   "constant_used": rep.constant_used,
                   "fitted_slope": rep.fitted_slope,
                   "slope_stderr": rep.slope_stderr,
                   "target_slope": rep.target_slope, "rows": rows}
        if rep.constant_alternate is not None:
            payload["constant_alternate"] = rep.constant_alternate
    else:
        rows = testfn.phi0_along(pair, cfg.testfn_eps, cfg.L_fixed)
        payload = {**_report_header(cfg), "case": pair.case_tag,
                   "L_mode": cfg.L_mode, "rows": rows}
    path = _write_report(cfg, "testfn", payload, rows_key="rows")
    print(f"testfn: case {pair.case_tag}, {len(rows)} evaluations; "
          f"report: {path}")
    if pair.case_tag == "two" and cfg.L_mode == "auto":
        print("testfn: the case-2 slope and constants are not a result yet "
              "(a term of the case-2 level is missing; see README)")
    return EXIT_OK


# --- sweep ------------------------------------------------------------

def cmd_sweep(cfg: RunConfig) -> int:
    metric = cfg.metric()
    records = diagnostics.sweep(cfg.sweep_eps, metric, cfg.solver)
    payload = {**_report_header(cfg), "runs": [r.to_record() for r in records]}
    path = _write_report(cfg, "sweep", payload, rows_key="runs")
    classes = [r.classification for r in records]
    print(f"sweep: {len(records)} runs, classifications: "
          f"{', '.join(classes)}; report: {path}")
    # a run that raised has no report; its stop reason reads "error"
    bad = [f"eps {r.eps:g} ({r.report.stop_reason if r.report else 'error'})"
           for r in records if r.report is None or not r.report.converged]
    if bad:
        print(f"numerical failure: sweep did not converge at "
              f"{', '.join(bad)}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# --- entry point ------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse whose argument errors raise ConfigError, so that a bad
    command line exits 64 with one line like any other bad input."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="todalab",
        description="Toda-energy laboratory: verification, minimization, "
                    "Green data, test-function energetics, blow-up sweeps.")
    parser.add_argument("command",
                        choices=["verify", "solve", "green", "testfn",
                                 "sweep"])
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--format", choices=["json", "csv"],
                        help="report format (overrides config)")
    parser.add_argument("--perturb", action="store_true",
                        help="inject a small fault into the first verify "
                             "check (test hook)")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = parse_config(args.config) if args.config else RunConfig({})
        if args.out:
            cfg.entries["output.dir"] = args.out
            cfg.out_dir = args.out
        if args.format:
            cfg.entries["output.format"] = args.format
            cfg.fmt = args.format
        try:
            os.makedirs(cfg.out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory: {exc}") from None
        if args.command == "verify":
            return cmd_verify(cfg, args.perturb)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "green":
            return cmd_green(cfg)
        if args.command == "testfn":
            return cmd_testfn(cfg)
        return cmd_sweep(cfg)
    except (ConfigError, DataError, GeometryError, GridMismatchError,
            ResolutionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TodalabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
