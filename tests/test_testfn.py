import ast
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from todalab import testfn
from todalab.bubble import lower_bound_case1, lower_bound_case2, case2_closing_constant
from todalab.errors import AccuracyError, ConfigError, GeometryError, SolverError
from todalab.functional import SolverOptions
from todalab.geometry import make_conformal_metric, make_flat_torus
from todalab.greens import extract_expansions, green_pair_case1, green_pair_case2
from todalab.spectral import ScalarField, TorusGrid, dirichlet_form
from todalab.testfn import (
    _Phi0Evaluator,
    _StackEval,
    DEFAULT_EPS_LIST,
    asymptotic_fit_case1,
    asymptotic_fit_case2,
    build_test_pair,
    coupling_L,
    deficit_data,
    evaluate_phi0,
    field_on_grid,
    phi0_breakdown,
    smoothstep,
)
from torus_integrals import integrate

FOUR_PI = 4.0 * math.pi


def brute_force_value(tf):
    """Grid-quadrature evaluation of the limiting functional, fully
    independent of the hybrid evaluator's region splitting."""
    metric = tf.pair.metric
    f1 = field_on_grid(tf, 1)
    f2 = field_on_grid(tf, 2)
    quad = (dirichlet_form(f1, f1) + dirichlet_form(f2, f2)
            + dirichlet_form(f1, f2)) / 3.0
    means = integrate(f1, metric) + integrate(f2, metric)
    logs = math.log(integrate(ScalarField(metric.grid, np.exp(f1.values)), metric)) \
        + math.log(integrate(ScalarField(metric.grid, np.exp(f2.values)), metric))
    return quad + FOUR_PI * means - FOUR_PI * logs


def cosine_metric(n, a):
    """The cosine:a metric, e^phi with phi = a cos 2 pi x cos 2 pi y
    shifted to unit area."""
    grid = TorusGrid(n)
    X, Y = grid.mesh()
    return make_conformal_metric(ScalarField(
        grid, a * np.cos(2 * math.pi * X) * np.cos(2 * math.pi * Y)))


def make_pair(metric, *poles):
    """The two-pole pair at two poles, the one-pole pair at one; with
    expansions."""
    if len(poles) == 2:
        pair = green_pair_case1(*poles, metric)
    else:
        pair = green_pair_case2(np.asarray(poles[0], dtype=float), metric)
    extract_expansions(pair)
    return pair


# the curved pairs: two poles at the maxima of e^phi on cosine:0.5, and
# one pole off every symmetry line on cosine:0.1
@pytest.fixture(scope="module")
def curved_two_128():
    return make_pair(cosine_metric(128, 0.5), (0.0, 0.0), (0.5, 0.5))


@pytest.fixture(scope="module")
def curved_two_256():
    return make_pair(cosine_metric(256, 0.5), (0.0, 0.0), (0.5, 0.5))


@pytest.fixture(scope="module")
def curved_one_256():
    return make_pair(cosine_metric(256, 0.1), (0.3, 0.6))


def test_coupling_identity():
    for eps in DEFAULT_EPS_LIST:
        L = coupling_L(eps)
        assert L ** 4 * eps ** 2 == pytest.approx(1.0 / math.log(-math.log(eps)),
                                                  rel=1e-12)
        assert L * eps < 0.125
    with pytest.raises(ConfigError):
        coupling_L(math.exp(-1.0))
    with pytest.raises(ConfigError):
        coupling_L(0.5)


@pytest.mark.parametrize("eps", [1e-160, 1e-300, 5e-324])
def test_tiny_eps_rejected(pair1_128, eps):
    # eps^2 underflows (to 0 or to a subnormal) and L overflows: a
    # ConfigError, not a ZeroDivisionError or an infinite window
    with pytest.raises(ConfigError, match="too small"):
        coupling_L(eps)
    with pytest.raises(ConfigError, match="too small"):
        build_test_pair(pair1_128, eps)
    # a fixed L whose window radius squared underflows
    with pytest.raises(ConfigError, match="underflows"):
        build_test_pair(pair1_128, eps, 2.0)
    # the smallest eps of the fits' tail still gives a finite L
    assert math.isfinite(coupling_L(1e-8) * 1e-8)


def test_smoothstep_endpoints():
    assert smoothstep(np.array([0.09, 0.1]), 0.1, 0.2).tolist() == [1.0, 1.0]
    assert smoothstep(np.array([0.2, 0.5]), 0.1, 0.2).tolist() == [0.0, 0.0]
    mid = smoothstep(np.array([0.15]), 0.1, 0.2)[0]
    assert 0.0 < mid < 1.0


def test_fields_continuous_across_branch_edges(pair1_128):
    tf = build_test_pair(pair1_128, 0.02, 5.0)
    le = 0.1
    delta = 1e-8
    p = pair1_128.points[0]
    for radius in (le, 2 * le):
        for th in (0.3, 1.7, 4.0):
            d = np.array([math.cos(th), math.sin(th)])
            lo = (p + (radius - delta) * d)[None, :]
            hi = (p + (radius + delta) * d)[None, :]
            for k in (1, 2):
                jump = abs(tf.eval_field(k, lo)[0] - tf.eval_field(k, hi)[0])
                # continuous with slope < ~500 near the edges
                assert jump < 1e-5, (radius, th, k)


def test_grid_values_match_pointwise(pair1_128):
    tf = build_test_pair(pair1_128, 0.02, 5.0)
    grid = pair1_128.grid
    rng = np.random.default_rng(6)
    idx = rng.integers(0, grid.n, size=(60, 2))
    pts = idx * grid.h
    for k in (1, 2):
        f = field_on_grid(tf, k)
        got = f.values[idx[:, 0], idx[:, 1]]
        ref = tf.eval_field(k, pts)
        assert np.max(np.abs(got - ref)) < 1e-9


def test_window_overlap_rejected(pair1_128):
    # diagonal separation ~0.707: L*eps beyond a quarter of it must fail
    with pytest.raises(GeometryError):
        build_test_pair(pair1_128, 0.02, 10.0)


def test_window_scale_rejected(pair2_256):
    # single point: no separation constraint, but L*eps must stay under 1/8
    with pytest.raises(ConfigError):
        build_test_pair(pair2_256, 0.02, 7.0)


def test_value_against_grid_quadrature_case1(pair1_256):
    tf = build_test_pair(pair1_256, 0.02, 5.0)
    fast = evaluate_phi0(tf)
    brute = brute_force_value(tf)
    assert abs(fast - brute) < 1e-3 * abs(brute)


def test_value_against_grid_quadrature_case2(pair2_256):
    tf = build_test_pair(pair2_256, 0.02, 5.0)
    fast = evaluate_phi0(tf)
    brute = brute_force_value(tf)
    assert abs(fast - brute) < 1e-3 * abs(brute)


def test_value_independent_of_stitch_radius(pair1_128):
    tf = build_test_pair(pair1_128, 0.02, 5.0)
    v2 = evaluate_phi0(tf, stitch=2.0)
    v3 = evaluate_phi0(tf, stitch=3.0)
    assert abs(v2 - v3) < 1e-3 * abs(v2)


def test_value_against_grid_quadrature_curved_case1(curved_two_256):
    # without the (w - 1) part of the stitch discs' log integrals the
    # evaluator read -8.2179 against the oracle's -6.3509
    tf = build_test_pair(curved_two_256, 0.02, 5.0)
    fast = evaluate_phi0(tf)
    brute = brute_force_value(tf)
    assert abs(fast - brute) < 1e-3 * abs(brute)


def test_value_against_grid_quadrature_curved_case2(curved_one_256):
    # ... and 1.8124 against 1.8679 on the one-pole pair
    assert curved_one_256.descent.converged
    tf = build_test_pair(curved_one_256, 0.02, 5.0)
    fast = evaluate_phi0(tf)
    brute = brute_force_value(tf)
    assert abs(fast - brute) < 1e-3 * abs(brute)


@pytest.mark.parametrize("stitch", [3.0, 4.0])
def test_value_independent_of_stitch_radius_curved(curved_two_128, stitch):
    # the stitch factor is bookkeeping, so phi0 on cosine:0.5 must not
    # see it; without the stitch discs' (w - 1) log part stitch 2, 3 and
    # 4 read -8.2179, -8.7729 and -8.6293
    tf = build_test_pair(curved_two_128, 0.02, 5.0)
    v2 = evaluate_phi0(tf, stitch=2.0)
    v = evaluate_phi0(tf, stitch=stitch)
    assert abs(v2 - v) < 1e-3 * abs(v2)


@pytest.mark.parametrize("a", [0.0, 0.5], ids=["flat", "cosine:0.5"])
@pytest.mark.parametrize("poles", [((0.25, 0.25), (0.75, 0.75)),
                                   ((0.3, 0.6),)],
                         ids=["two-pole", "one-pole"])
@pytest.mark.parametrize("eps, L", [(0.02, 5.0), (1e-3, None)])
def test_builder_matches_per_case_formulas(a, poles, eps, L):
    # the builder reads every branch from the log coefficients; the
    # oracle is the two per-case constructions written out, to the bit
    metric = make_flat_torus(64) if a == 0.0 else cosine_metric(64, a)
    pair = make_pair(metric, *poles)
    tf = build_test_pair(pair, eps, L)
    le = tf.L * eps
    l1p = math.log1p(math.pi * tf.L * tf.L)
    A = {key: e.A for key, e in pair.expansions.items()}
    if len(poles) == 2:
        half, disc, outer = {}, {}, {}
        for k, own in ((1, 0), (2, 1)):
            other = 1 - own
            outer[k] = 4.0 * math.log(le) - 2.0 * l1p - A[(k, own)]
            half[(k, own)], disc[(k, own)] = False, 0.0
            half[(k, other)] = True
            disc[(k, other)] = (6.0 * math.log(le) - 2.0 * l1p
                                + A[(k, other)] - A[(k, own)])
    else:
        half = {(1, 0): False, (2, 0): True}
        disc = {(1, 0): 0.0, (2, 0): 2.0 * math.log(le) + A[(2, 0)]}
        outer = {1: 4.0 * math.log(le) - 2.0 * l1p - A[(1, 0)], 2: 0.0}
    assert tf.disc_const == disc
    assert tf.outer_const == outer
    assert {key: tf.half(*key) for key in half} == half
    assert half == {key: e.a > 0.0 for key, e in pair.expansions.items()}


# the functions and classes of the phi0 path: the test pair and its
# evaluation, which read every branch from the Green pair's data
_PHI0_PATH = ("TestFunctionPair", "_window_radius", "_own_poles",
              "build_test_pair", "field_on_grid", "_StackEval",
              "_Phi0Evaluator", "evaluate_phi0", "phi0_breakdown",
              "phi0_along")


def _case_tag_lines(node):
    return [n.lineno for n in ast.walk(node)
            if (isinstance(n, ast.Attribute) and n.attr == "case_tag")
            or (isinstance(n, ast.Name) and n.id == "case_tag")
            or (isinstance(n, ast.Constant) and n.value == "case_tag")]


def test_phi0_path_reads_no_case_tag():
    tree = ast.parse(pathlib.Path(testfn.__file__).read_text())
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert _case_tag_lines(defs["deficit_data"])    # the guard sees its uses
    found = {name: _case_tag_lines(defs[name]) for name in _PHI0_PATH}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_gap_independent_of_stitch_radius_at_small_eps(pair1_128):
    # at eps = 1e-6 a gap of 1 in (phi0 - C) / eps^2 is 1e-12 in phi0;
    # the two stitch radii put the polar nodes at different radii, so a
    # field error that grows as the nodes near the pole shows here (the
    # per-point image sums, with their ulp(p) / r error, gave 2.27)
    eps = 1e-6
    tf = build_test_pair(pair1_128, eps)
    gap = evaluate_phi0(tf, stitch=2.0) - evaluate_phi0(tf, stitch=3.0)
    assert abs(gap) / (eps * eps) < 0.5


def test_value_swap_symmetric(pair1_128):
    p1, p2 = pair1_128.points
    swapped = green_pair_case1(p2, p1, pair1_128.metric)
    extract_expansions(swapped)
    a = evaluate_phi0(build_test_pair(pair1_128, 0.02, 5.0))
    b = evaluate_phi0(build_test_pair(swapped, 0.02, 5.0))
    assert abs(a - b) < 1e-12


def test_breakdown_composition(pair1_128):
    tf = build_test_pair(pair1_128, 0.02, 5.0)
    bd = phi0_breakdown(tf)
    quad = sum(bd[f"dirichlet_inner_{km}"] + bd[f"dirichlet_outer_{km}"]
               for km in ("11", "22", "12")) / 3.0
    assert bd["quadratic"] == pytest.approx(quad, abs=1e-12)
    recombined = bd["quadratic"] + FOUR_PI * (bd["mean_1"] + bd["mean_2"]) \
        - FOUR_PI * (bd["log_int_1"] + bd["log_int_2"])
    assert bd["value"] == pytest.approx(recombined, abs=1e-12)


def test_ring_block_converges(pair1_128, monkeypatch):
    # at 10^-2.5 the cutoff's C^2 knot used to fall inside a dyadic panel,
    # and orders 16 and 24 differed by 1.2e-5 against tol = 1e-11
    ev = _Phi0Evaluator(build_test_pair(pair1_128, 10.0 ** -2.5))
    for k, own in ((1, 0), (2, 1)):
        assert ev._ring_block(k, own) > 0.0   # raises unless converged
    monkeypatch.setattr(testfn, "_REFINE_TOL", -1.0)
    with pytest.raises(AccuracyError) as info:
        ev._ring_block(1, 0)
    # the message holds the last two levels (orders 16 and 24), which differ
    older, last = str(info.value).rsplit(" give ", 1)[1].split(" / ")
    assert older != last


def test_fit_rejects_a_foreign_metric():
    # a fit's metric must be the pair's own Metric object, not an equal
    # one, and a mismatch stops it before any work: before the eps list
    # check, the convergence check and the expansion fits
    metric = make_flat_torus(64)
    pair = green_pair_case1((0.25, 0.25), (0.75, 0.75), metric)
    with pytest.raises(ConfigError, match="metric"):
        asymptotic_fit_case1(pair, make_flat_torus(64), (1e-2, 1e-3))
    assert pair.expansions == {}
    one = green_pair_case2(np.array([0.5, 0.5]), metric,
                           SolverOptions(max_iter=2))
    with pytest.raises(ConfigError, match="metric"):
        asymptotic_fit_case2(one, make_flat_torus(64))
    assert one.expansions == {}


def test_fit_rejects_the_other_case():
    # each fit takes its own case's pair and names the case otherwise,
    # before any work: no expansion is fitted
    metric = make_flat_torus(64)
    one = green_pair_case2(np.array([0.5, 0.5]), metric,
                           SolverOptions(max_iter=2))
    with pytest.raises(ConfigError, match="case one fit on a case two pair"):
        asymptotic_fit_case1(one, metric)
    assert one.expansions == {}
    two = green_pair_case1((0.25, 0.25), (0.75, 0.75), metric)
    with pytest.raises(ConfigError, match="case two fit on a case one pair"):
        asymptotic_fit_case2(two, metric)
    assert two.expansions == {}


def test_shared_field_evaluator(pair1_128):
    # the rows of a fit share one evaluator, to the same bits as a fresh
    # one per row; an evaluator of another pair is rejected
    tf = build_test_pair(pair1_128, 1e-3)
    assert evaluate_phi0(tf, stack=_StackEval(pair1_128)) == evaluate_phi0(tf)
    other = green_pair_case1((0.25, 0.25), (0.75, 0.75), pair1_128.metric)
    with pytest.raises(ConfigError):
        evaluate_phi0(tf, stack=_StackEval(other))


def test_deficit_targets_flat(pair1_128, pair2_256):
    d1 = deficit_data(pair1_128)
    # flat metric, symmetric configuration: no curvature, no tilt
    assert d1.case_tag == "one"
    assert d1.coeff == pytest.approx(8.0 * math.pi, abs=1e-8)
    assert d1.B[1] == pytest.approx(0.0, abs=1e-12)
    d2 = deficit_data(pair2_256)
    assert d2.coeff == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("a", [0.1, 0.5])
def test_deficit_coefficient_curved_matches_curvature(a):
    # at the maxima (0, 0) and (1/2, 1/2) of e^phi on cosine:a the metric
    # has no gradient and the fields no tilt, so the coefficient is
    # 8 pi - 2 (K(p1) + K(p2)) with K = 4 pi^2 a / e^phi(p) exactly; the
    # charts read K from phi's modes, so only round-off is left (at most
    # 2.1e-12 here)
    for n in (64, 128):
        metric = cosine_metric(n, a)
        pair = make_pair(metric, (0.0, 0.0), (0.5, 0.5))
        dd = deficit_data(pair)
        assert max(dd.B.values()) < 1e-25
        weights = (metric.weight[0, 0], metric.weight[n // 2, n // 2])
        closed = 8.0 * math.pi - 2.0 * sum(4.0 * math.pi ** 2 * a / w
                                           for w in weights)
        assert abs(dd.coeff - closed) < 1e-9, n


def test_deficit_coefficient_tilted_pair_converges():
    # poles off the symmetry points carry a metric tilt b and field tilts
    # (lambda, mu): the coefficient settles to 9.7e-7 from n = 128 to 256
    coeffs = []
    for n in (128, 256):
        pair = make_pair(cosine_metric(n, 0.5), (0.1, 0.3), (0.6, 0.7))
        dd = deficit_data(pair)
        assert min(dd.B.values()) > 1e-3
        coeffs.append(dd.coeff)
    assert abs(coeffs[0] - coeffs[1]) < 1e-5


def test_eps_list_validation(pair1_128):
    with pytest.raises(ConfigError):
        asymptotic_fit_case1(pair1_128, pair1_128.metric, (1e-2, 1e-3, 1e-4))
    with pytest.raises(ConfigError):
        asymptotic_fit_case1(pair1_128, pair1_128.metric,
                             (1e-2, 1e-3, 1e-3, 1e-4))


def test_fit_case1_report(pair1_128):
    report = asymptotic_fit_case1(pair1_128, pair1_128.metric,
                                  DEFAULT_EPS_LIST[:4])
    expect_const = lower_bound_case1(pair1_128.expansions[(1, 0)].A,
                                     pair1_128.expansions[(2, 1)].A)
    assert report.case_tag == "one"
    assert report.constant_used == pytest.approx(expect_const, abs=1e-12)
    assert report.constant_alternate is None
    assert report.target_slope == pytest.approx(-8.0 * math.pi, abs=1e-8)
    assert len(report.rows) == 4
    for row, eps in zip(report.rows, DEFAULT_EPS_LIST):
        assert row["eps"] == eps
        assert row["L"] == pytest.approx(coupling_L(eps), rel=1e-12)
        assert row["regressor"] == pytest.approx(
            eps * eps * (-math.log(eps * eps)), rel=1e-12)
        assert row["remainder"] == pytest.approx(row["phi0"] - expect_const,
                                                 abs=1e-12)
    # the energies close in on the limiting constant from above
    remainders = [row["remainder"] for row in report.rows]
    assert all(r > 0 for r in remainders)
    assert all(b < a for a, b in zip(remainders, remainders[1:]))
    assert math.isfinite(report.slope_stderr) and report.slope_stderr >= 0.0


def test_fit_case2_report(pair2_256):
    report = asymptotic_fit_case2(pair2_256, pair2_256.metric,
                                  DEFAULT_EPS_LIST[:4])
    assert report.case_tag == "two"
    assert report.constant_used == pytest.approx(
        lower_bound_case2(pair2_256.expansions[(1, 0)].A, pair2_256.mean_G2),
        abs=1e-12)
    assert report.constant_alternate == pytest.approx(
        case2_closing_constant(pair2_256.mean_G2), abs=1e-12)
    assert report.target_slope == pytest.approx(-1.0, abs=1e-8)
    vals = [row["phi0"] for row in report.rows]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_fit_case2_rejects_an_unconverged_pair():
    # a pair stopped by max_iter is no solution of the G2 equation, and a
    # fit on it would report a meaningless slope
    metric = make_flat_torus(64)
    pair = green_pair_case2(np.array([0.5, 0.5]), metric,
                            SolverOptions(max_iter=2))
    assert pair.descent.stop_reason == "max_iter"
    with pytest.raises(SolverError, match=r"did not converge \(max_iter\)"):
        asymptotic_fit_case2(pair, metric)


def test_stack_eval_memory_peak():
    # one full-gradient polar call at 13824 nodes (144 radii out to 0.45,
    # 96 angles) on the n=64 one-pole pair: image sums run in 8192-point
    # batches of live images only and the off-grid contraction frees each
    # 256-point gather before the next; both at once peaked at 9.3 MB here
    pair = green_pair_case2(np.array([0.5, 0.5]), make_flat_torus(64))
    extract_expansions(pair)
    ev = _StackEval(pair)
    r_nodes = np.geomspace(1e-6, 0.45, 144)
    tracemalloc.start()
    try:
        out = ev.polar(0, r_nodes, 96)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out["dG2"].shape == (144, 96, 2)
    assert peak < 6.0e6


def test_metric_weight_is_the_polar_weight_alone(curved_two_128, monkeypatch):
    # the (w - 1) disc integrals read the metric row alone: the same
    # weight as polar's, from one off-grid row and no image sum
    ev = _StackEval(curved_two_128)
    r_nodes = np.geomspace(1e-9, 0.05, 40)
    ref = ev.polar(1, r_nodes, 32, gradients=False)["weight"]
    seen = []
    real = testfn.spectral.eval_modes_stack_at

    def rows_seen(grid, stack, pts, fine):
        seen.append(stack.shape[0])
        assert fine.shape[2] == stack.shape[0]
        return real(grid, stack, pts, fine=fine)

    monkeypatch.setattr(testfn.spectral, "eval_modes_stack_at", rows_seen)
    monkeypatch.setattr(type(curved_two_128.G1), "image_values",
                        lambda *args: pytest.fail("image sum evaluated"))
    got = ev.metric_weight(1, r_nodes, 32)
    assert seen == [1]
    assert got.shape == ref.shape == (40, 32)
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(ref)
