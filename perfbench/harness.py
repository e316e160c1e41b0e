"""Run loop shared by the workloads: set-up, timed rounds, checks, result.

A workload module provides
  setup(tj, seed, out_dir) -> state builds every input from the seed
  prepare(state, r) -> inputs       per-round inputs (untimed)
  body(state, inputs, tally) -> out the timed calls into trigjacobi
  check(state, inputs, out, tally)  correctness checks (untimed, untraced)
and optionally layer_extra(out) -> dict of per-layer figures it measures
itself. Every round makes the same calls and the same checks, so the share
of failed operations does not depend on the seed or on the run length.
"""

from __future__ import annotations

import importlib
import os
import resource
import statistics
import sys
import time
import traceback
import types

from tracing import Tracer, unit

SETUP_REPS = 7
MODULES = ("basis", "measure", "quadrature", "kernels", "operators", "verify", "cli")


class Tally:
    """Operations attempted and failed; a failed check counts as a failed
    operation and also makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks_failed = 0
        self.notes: list[str] = []

    def call(self, label: str, fn, *args, **kwargs):
        """One operation: returns fn's result, or None when it raises."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing call is a result, not a crash
            self.failed += 1
            self._note(f"operation {label} raised {type(exc).__name__}: {exc}")
            return None

    def expect(self, label: str, predicate) -> None:
        """One check: predicate() must return True. A predicate that raises
        fails the check; raising is also how it reports a measured gap."""
        self.attempted += 1
        try:
            ok, info = bool(predicate()), ""
        except Exception:
            ok, info = False, traceback.format_exc(limit=2)
        if not ok:
            self.failed += 1
            self.checks_failed += 1
            self._note(f"check {label} failed {info}")

    def _note(self, text: str) -> None:
        if len(self.notes) < 50:
            self.notes.append(text)


def gap_within(gap: float, tol: float) -> bool:
    """True when gap <= tol; otherwise raises, so the failed check shows the gap."""
    if not gap <= tol:
        raise AssertionError(f"gap {gap:.3e} exceeds {tol:.1e}")
    return True


def import_program() -> types.SimpleNamespace:
    """A fresh import of every trigjacobi module, as attributes (tj.kernels, ...)."""
    for name in [n for n in sys.modules if n == "trigjacobi" or n.startswith("trigjacobi.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"trigjacobi.{name}") for name in MODULES})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    tally = Tally()
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        tj = import_program()
        state = workload.setup(tj, seed, out_dir)
        setup_times.append(time.perf_counter() - t0)

    tracer = Tracer() if trace else None
    walls = {False: [], True: []}
    layers: list[dict] = []
    peak = 0.0
    start = time.perf_counter()
    r = 0
    while True:
        traced = trace and r % 2 == 1
        inputs = workload.prepare(state, r)
        if traced:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = workload.body(state, inputs, tally)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        peak = peak_rss_mb()
        walls[traced].append(wall)
        if traced:
            # only verify-quick writes a report
            extra = getattr(workload, "layer_extra", lambda o: {"cli.report_bytes": 0})(out)
            layers.append({**tracer.metrics(), **extra})
        workload.check(state, inputs, out, tally)
        r += 1
        enough = r >= (2 if trace else 1)
        if enough and time.perf_counter() - start >= seconds:
            break

    for note in tally.notes:
        print(note, file=sys.stderr)
    result = {"correct": tally.checks_failed == 0, "attempted": tally.attempted,
              "failed": tally.failed}
    if not trace:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(walls[False]), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
        return result

    # the tracer holds the spans of the last traced round
    tracer.dump(os.path.join(out_dir, f"trace-{workload.NAME}-seed{seed}.json"),
                {"workload": workload.NAME, "seed": seed})
    metrics = {name: {"value": statistics.median(f[name] for f in layers), "unit": unit(name)}
               for name in layers[0]}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(walls[True]) - statistics.median(walls[False]),
        "unit": "s"}
    result["metrics"] = metrics
    return result

