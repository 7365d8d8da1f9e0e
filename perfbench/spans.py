"""In-memory spans around the public functions of todalab's layers.

The tracer replaces each function at the name its caller looks it up by
(a module attribute, or a class attribute for methods) with a wrapper
that records one span: name, start, end and the index of the enclosing
span.  Spans are kept in a list and written out once, by `write`.  A
span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.

`Tracer.active` switches recording on and off, so the set-up of the
inputs and the checks leave no spans in a round's metrics.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# 2-D transform entry points of numpy.fft and scipy.fft.
FFT_NAMES = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn",
             "irfftn")

# Span names that make up the off-grid layer; the last two do the sums.
OFFGRID_WRAPPERS = ("spectral.eval_at", "spectral.eval_gradient_at")
OFFGRID_SUMS = ("spectral.eval_modes_at", "spectral.eval_modes_stack_at")
IMAGE_METHODS = ("eval", "eval_regular", "eval_gradient", "image_values",
                 "image_gradients")


class Tracer:
    """Patches todalab's layer boundaries and records spans in memory."""

    def __init__(self):
        self.active = False
        self.records: list = []      # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts = defaultdict(int)

    # -- recording ------------------------------------------------------

    def wrap(self, name: str, fn, after=None, before=None):
        """Return fn wrapped in a span called `name`.

        before(args) may return replacement args; after(args, result)
        adds to `counts`.  Both run only while recording.
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(args)
            parent = tracer.stack[-1] if tracer.stack else -1
            idx = len(tracer.records)
            rec = [name, 0.0, 0.0, parent]
            tracer.records.append(rec)
            tracer.stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **hooks))

    def mark(self) -> int:
        """Index of the next span; pass to `layer_metrics` as `since`."""
        return len(self.records)

    # -- reduction ------------------------------------------------------

    def totals(self, since: int = 0) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        recs = self.records[since:]
        child_time = [0.0] * len(recs)
        for rec in recs:
            parent = rec[3] - since
            if parent >= 0:
                child_time[parent] += rec[2] - rec[1]
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for rec, kids in zip(recs, child_time):
            agg = out[rec[0]]
            dur = rec[2] - rec[1]
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - kids
        return out

    def write(self, path: str, meta: dict) -> None:
        """Write every span as compact columns plus `meta`, once."""
        names = sorted({rec[0] for rec in self.records})
        code = {n: i for i, n in enumerate(names)}
        doc = {
            "meta": meta,
            "names": names,
            "name": [code[r[0]] for r in self.records],
            "start": [r[1] for r in self.records],
            "end": [r[2] for r in self.records],
            "parent": [r[3] for r in self.records],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    import numpy as np
    import numpy.fft
    import scipy.fft
    from todalab import functional, geometry, greens, spectral, testfn

    counts = tracer.counts

    def count_points(args, result):
        # (grid, modes, points): a (F, n, n) stack counts F fields.
        modes, points = args[1], np.atleast_2d(args[2])
        fields = modes.shape[0] if modes.ndim == 3 else 1
        counts["offgrid.points"] += points.shape[0] * fields

    for lib, prefix in ((numpy.fft, "numpy.fft"), (scipy.fft, "scipy.fft")):
        for fn in FFT_NAMES:
            tracer.patch(lib, fn, f"{prefix}.{fn}")

    for fn in ("eval_modes_at", "eval_modes_stack_at"):
        tracer.patch(spectral, fn, f"spectral.{fn}", after=count_points)
    tracer.patch(spectral, "eval_at", "spectral.eval_at")
    tracer.patch(spectral, "eval_gradient_at", "spectral.eval_gradient_at")
    tracer.patch(spectral, "product_dealiased", "spectral.product_dealiased")

    for meth in IMAGE_METHODS:
        tracer.patch(greens.SingularField, meth, f"greens.image.{meth}")
    tracer.patch(greens.SingularField, "grid_values", "greens.grid_values")
    tracer.patch(greens, "green_pair_case1", "greens.pair")
    tracer.patch(greens, "green_pair_case2", "greens.pair")
    tracer.patch(greens, "local_expansion", "greens.local_expansion")

    def wrap_energy(args):
        args = list(args)
        args[2] = tracer.wrap("functional.energy_grad", args[2])
        return tuple(args)

    def count_iterations(args, result):
        counts["functional.iterations"] += result.iterations

    for owner in (functional, greens):
        tracer.patch(owner, "run_descent", "functional.descent",
                     before=wrap_energy, after=count_iterations)
    tracer.patch(functional, "el_residual", "functional.el_residual")

    tracer.patch(testfn, "evaluate_phi0", "testfn.evaluate_phi0")
    tracer.patch(geometry, "make_conformal_metric",
                 "geometry.make_conformal_metric")
    for owner in (geometry, testfn):
        tracer.patch(owner, "metric_expansion_at",
                     "geometry.metric_expansion_at")


def layer_metrics(tracer: Tracer, since: int, counts: dict) -> dict:
    """The per-layer metrics of the spans recorded after `since`.

    `counts` are the tracer's counters as they stood at `since`.
    """
    t = tracer.totals(since)

    def get(name, key):
        return t[name][key] if name in t else 0

    def delta(key):
        return tracer.counts[key] - counts.get(key, 0)

    fft_names = [f"{p}.{f}" for p in ("numpy.fft", "scipy.fft")
                 for f in FFT_NAMES]
    return {
        "spectral.offgrid.s": sum(get(n, "self_s")
                                  for n in OFFGRID_SUMS + OFFGRID_WRAPPERS),
        "spectral.offgrid.calls": sum(get(n, "calls") for n in OFFGRID_SUMS),
        "spectral.offgrid.points": delta("offgrid.points"),
        "greens.image.s": sum(get(f"greens.image.{m}", "self_s")
                              for m in IMAGE_METHODS),
        "greens.grid_values.s": get("greens.grid_values", "s"),
        "greens.grid_values.calls": get("greens.grid_values", "calls"),
        "testfn.evaluate_phi0.calls": get("testfn.evaluate_phi0", "calls"),
        "testfn.evaluate_phi0.s": get("testfn.evaluate_phi0", "s"),
        "testfn.evaluate_phi0.self_s": get("testfn.evaluate_phi0", "self_s"),
        "functional.iterations": delta("functional.iterations"),
        "functional.energy_grad.calls": get("functional.energy_grad", "calls"),
        "functional.energy_grad.s": get("functional.energy_grad", "s"),
        "functional.descent.s": get("functional.descent", "s"),
        "functional.descent.self_s": get("functional.descent", "self_s"),
        "spectral.fft.calls": sum(get(n, "calls") for n in fft_names),
        "spectral.fft.s": sum(get(n, "s") for n in fft_names),
        "spectral.product_dealiased.s": get("spectral.product_dealiased", "s"),
        "functional.el_residual.s": get("functional.el_residual", "s"),
        "geometry.metric_expansion_at.s": get("geometry.metric_expansion_at",
                                              "s"),
        "greens.pair.s": get("greens.pair", "self_s"),
        "greens.local_expansion.s": get("greens.local_expansion", "self_s"),
    }
