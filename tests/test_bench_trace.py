"""The benchmark's tracer still binds to the package.

perfbench/spans.py wraps `run_descent` where `functional` and `greens` look
it up, takes its third positional argument as the energy-and-gradient
callable and reads `.iterations` from its result.  A traced run that
reports zero iterations or zero energy calls means the wrapping no longer
reaches the solves.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["green-one-pole", "minimize-curved"])
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
    assert metrics["functional.iterations"]["value"] > 0
    assert metrics["functional.energy_grad.calls"]["value"] > 0
