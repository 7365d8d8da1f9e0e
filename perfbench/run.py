"""todalab benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own process
(workload.py) with the BLAS thread count fixed to BLAS_THREADS for every
run.  With --trace 0 the launcher first starts SETUP_REPEATS processes
that only set up, and reports the median set-up time over them and the
workload's own process.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics (the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1).  Result and trace
files go to perfbench/out/.  Exits non-zero, printing no result, when
the checkout holds no todalab sources or a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("deficit-two-pole", "green-one-pole", "minimize-curved")
BLAS_THREADS = 1        # one value for every run, never above nproc
SETUP_REPEATS = 3
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
COUNT_METRICS = ("calls", "points", "iterations")


def _env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        env[var] = threads
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _child(args, extra, deadline: float) -> tuple[str, dict]:
    """Run workload.py once; return its other output and its last line."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"workload process exceeded {DEADLINE_S:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited {proc.returncode}")
    lines = out.strip().splitlines()
    return "\n".join(lines[:-1]), json.loads(lines[-1])


def _unit(name: str) -> str:
    return "count" if name.rsplit(".", 1)[-1] in COUNT_METRICS else "s"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="todalab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "todalab", "__init__.py")):
        print(f"no todalab sources under {ROOT}/src", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)

    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            setups.append(_child(args, ["--setup-only"], deadline)[1]["setup_s"])
    text, res = _child(args, [], deadline)
    setups.append(res["setup_s"])
    res["setup_repeats"] = setups
    res["setup_s"] = statistics.median(setups)
    if text:
        print(text)

    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(res, fh, indent=1)

    if args.trace:
        metrics = {k: {"value": v, "unit": _unit(k)}
                   for k, v in res["per_layer"].items()}
    else:
        metrics = {k: {"value": res[k], "unit": u}
                   for k, u in END_TO_END.items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
