"""The benchmark's tracer still binds to the package.

perfbench/spans.py wraps `run_descent` where `functional` and `greens` look
it up, takes its third positional argument as the energy-and-gradient
callable and reads `.iterations` from its result; it wraps
`testfn.evaluate_phi0` where the fit rows look it up.  It counts off-grid
points in `spectral.eval_modes_at`/`eval_modes_stack_at` and times image
sums only in the `SingularField` methods it names (`eval`, `eval_regular`,
`eval_gradient`, `image_values`, `image_gradients`).  A traced run that
reports zero iterations, zero energy calls, zero phi0 evaluations, zero
off-grid points or no image-sum time means the wrapping no longer reaches
the solves, the fit rows, the off-grid sums or the image sums.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# the counters each workload's traced round must read above zero
COUNTERS = {
    "deficit-two-pole": ("testfn.evaluate_phi0.calls",
                         "spectral.offgrid.points", "greens.image.s"),
    "green-one-pole": ("functional.iterations",
                       "functional.energy_grad.calls",
                       "testfn.evaluate_phi0.calls",
                       "spectral.offgrid.points", "greens.image.s"),
    "minimize-curved": ("functional.iterations",
                        "functional.energy_grad.calls"),
}


@pytest.mark.parametrize("workload", sorted(COUNTERS))
def test_traced_benchmark_counts_descent_work(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    for name in COUNTERS[workload]:
        assert metrics[name]["value"] > 0, name
