"""Fast self-check of the benchmark's own code.

    python3 perfbench/selfcheck.py

Checks the reference numerics against scipy and against quadrature, the
tracer's counts and its clean removal, and runs one round of every workload
at tiny sizes with every correctness check on; then feeds each workload's
checks a slightly corrupted output and requires them to fail. Exits 0 when
everything holds. Not part of the repository's test suite.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import reference as ref  # noqa: E402
from scipy.special import roots_jacobi  # noqa: E402
from tracing import Tracer  # noqa: E402

PARAMS = ((0.0, 0.0), (1.5, -0.7), (-0.7, -0.6), (-0.5, 0.5), (-0.3, -0.7))
failures: list[str] = []


def expect(label: str, ok: bool) -> None:
    print(("ok   " if ok else "FAIL ") + label)
    if not ok:
        failures.append(label)


def check_reference() -> None:
    x = np.cos(np.array([0.03, 0.7, 1.9, 3.1]))
    for a, b in PARAMS:
        gap = ref.spot_check(a, b, (0, 1, 2, 3, 17, 400), x)
        expect(f"reference recurrence = eval_jacobi x norm at ({a}, {b}): {gap:.1e}",
               gap <= 1e-10)
        # orthonormality in dmu+ through an independent Gauss rule
        with np.errstate(invalid="ignore"):  # scipy divides 0/0 at a + b = -1
            nodes, w = roots_jacobi(40, a, b)
        w = w * 2.0 ** (-a - b - 1.0)
        for kind in ("trig_poly", "sym_poly"):
            theta = np.arccos(nodes)
            V = ref.family_matrix(a, b, kind, 20, theta)
            if kind == "sym_poly":  # symmetric rule on (-pi, pi)
                V = np.concatenate([ref.family_matrix(a, b, kind, 20, -theta), V], axis=1)
                w2 = np.concatenate([w, w])
            else:
                w2 = w
            err = np.max(np.abs((V * w2) @ V.T - np.eye(20)))
            expect(f"{kind} orthonormal at ({a}, {b}): {err:.1e}", err <= 1e-11)


def check_tracer(tj) -> None:
    basis = tj.basis
    original = basis.jacobi_table
    tracer = Tracer()
    tracer.install()
    params = basis.JacobiParams(0.5, 0.25)
    basis.jacobi_table(params, 10, np.linspace(-0.9, 0.9, 5))
    tj.kernels.poisson_kernel(params, "even").eval_pairs([1.0, 2.0], [1.5, 0.5], [0.5, 1.0])
    tracer.uninstall()
    m = tracer.metrics()
    cfg = tj.kernels.TruncationConfig()
    n = [cfg.series_length(params, t, 0) for t in (0.5, 1.0)]
    # one direct call, then one table each for theta and phi
    expect("tracer counts jacobi_table calls and steps",
           m["basis.jacobi_table.calls"] == 3
           and m["basis.jacobi_table.point_steps"] == 10 * 5 + 2 * max(n) * 2)
    expect("tracer counts series terms x pairs",
           m["kernels.term_samples"] == sum(n) * 2 and m["kernels.series_terms.max"] == max(n))
    expect("tracer removes every wrapper", basis.jacobi_table is original
           and tj.kernels.trig_poly_table is basis.trig_poly_table
           and "wrapper" not in tj.kernels.KernelHandle.eval_pairs.__code__.co_name)


def one_round(workload, out_dir: str, corrupt) -> None:
    """One round with every check; then the checks again on a corrupted output."""
    tj = harness.import_program()
    state = workload.setup(tj, 7, out_dir)
    inputs = workload.prepare(state, 0)
    tally = harness.Tally()
    out = workload.body(state, inputs, tally)
    workload.check(state, inputs, out, tally)
    for note in tally.notes:
        print("     " + note)
    expect(f"{workload.NAME}: {tally.attempted} operations, none failed",
           tally.attempted > 0 and tally.failed == 0)
    corrupt(out)
    tally = harness.Tally()
    workload.check(state, inputs, out, tally)
    expect(f"{workload.NAME}: a corrupted output fails {tally.checks_failed} check(s)",
           tally.checks_failed >= 1)


def check_workloads(out_dir: str) -> None:
    import wl_kernels
    import wl_operators
    import wl_verify

    wl_kernels.FRESH_SETS, wl_kernels.FRESH_PAIRS, wl_kernels.FIXED_PAIRS = 1, 64, 32
    wl_operators.BANDS = (16,)
    # a shorter time range keeps the CLI run to seconds; every check still runs
    wl_verify.ARGV = wl_verify.ARGV + ("--t-min", "0.01", "--t-max", "8")

    def bump_fresh(out):
        out[0][1][0][0, 0] *= 1.0 + 1e-6

    def bump_semigroup(out):
        out[16, "nonsym", "semigroup"].values[5] *= 1.0 + 1e-6

    def bump_report(out):
        _, path = out
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for entry in doc["checks"]:
            if entry["claim"] == "odd-dominated-by-even":
                entry["constant"] *= 1.0 + 1e-6
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    for workload, corrupt in ((wl_kernels, bump_fresh), (wl_operators, bump_semigroup),
                              (wl_verify, bump_report)):
        one_round(workload, out_dir, corrupt)


def main() -> int:
    check_reference()
    check_tracer(harness.import_program())
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    check_workloads(out_dir)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
