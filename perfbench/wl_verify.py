"""verify-quick: `trigjacobi verify all --profile quick` at the default
(alpha, beta) = (0, 0), through the CLI entry point, report written to a file.

One operation is one CLI invocation. The seed picks which of the sweep's own
points and time nodes the kernel values are checked at; the invocation itself
does not change with the seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

import reference as ref
from harness import gap_within

NAME = "verify-quick"
ARGV = ("verify", "all", "--profile", "quick")
ALPHA, BETA = 0.0, 0.0
# suites cheap enough to rerun in every round; their checks must come out
# byte-identical to the same checks inside the full report
RERUN_SUITES = ("identities", "sharp-constants", "domination", "lp-sweep")
SHARP = (("sharp-constant-a", 1.0 / (4.0 * math.pi)),
         ("sharp-constant-b", 1.0 / 16.0),
         ("sharp-constant-c", 1.0 / math.pi))
DOMINATION_TIMES = 0.01 * 2.0 ** np.arange(11)
PAIRS_PER_BAND = 2
EXTRA_TIMES = 5
# kernel values must agree to this share of the sum of the absolute values
# of the series' terms (the size of the rounding error of any summation)
KERNEL_TOL = 1e-10


@dataclass
class State:
    tj: object
    out_dir: str
    spec: object
    theta: np.ndarray
    phi: np.ndarray
    times: np.ndarray
    previous_report: bytes | None = None


def setup(tj, seed: int, out_dir: str) -> State:
    spec = tj.verify.QUICK_SWEEP
    nodes = spec.tgrid().nodes
    rng = np.random.default_rng(seed)
    theta, phi = [], []
    for _, th, ph in spec.bands():
        pick = rng.choice(th.size, PAIRS_PER_BAND, replace=False)
        theta.extend(th[pick])
        phi.extend(ph[pick])
    # always the smallest node (t = 5e-3), plus a seeded few others
    others = rng.choice(np.arange(1, nodes.size), EXTRA_TIMES, replace=False)
    times = np.sort(nodes[np.concatenate([[0], others])])
    return State(tj, out_dir, spec, np.array(theta), np.array(phi), times)


def prepare(state: State, r: int) -> str:
    path = os.path.join(state.out_dir, f"{NAME}-report.json")
    if os.path.exists(path):
        os.remove(path)
    return path


def body(state: State, path: str, tally):
    code = tally.call("cli verify all", state.tj.cli.main, [*ARGV, "--out", path])
    return code, path


def layer_extra(out) -> dict:
    _, path = out
    return {"cli.report_bytes": os.path.getsize(path) if os.path.exists(path) else 0}


def _entry(doc: dict, claim: str) -> dict:
    return next(c for c in doc["checks"] if c["claim"] == claim)


def _canonical(entry: dict) -> str:
    return json.dumps(entry, sort_keys=True, indent=2)


def check(state: State, path: str, out, tally) -> None:
    code, _ = out
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw)
    except (OSError, ValueError):
        raw, doc = None, None  # every check that reads the report fails

    tally.expect("exit code 0", lambda: code == 0)
    tally.expect("report passed", lambda: doc["passed"] is True
                 and doc["alpha"] == ALPHA and doc["beta"] == BETA)
    for claim, const in SHARP:
        def sharp_ok(claim=claim, const=const):
            e = _entry(doc, claim)
            d = e["details"]
            return (e["passed"] and d["constant"] == const
                    and abs(d["approach_value"] - const) <= 1e-9 * const
                    and d["grid_max"] <= const * (1.0 + 1e-12))
        tally.expect(f"{claim} equals {const:.12g}", sharp_ok)

    if state.previous_report is not None:
        prev = state.previous_report
        tally.expect("report byte-identical to the previous invocation",
                     lambda: raw == prev)
    state.previous_report = raw
    _check_reruns(state, doc, tally)
    _check_kernels(state, tally)
    _check_domination(state, doc, tally)


def _check_reruns(state: State, doc: dict, tally) -> None:
    part = os.path.join(state.out_dir, f"{NAME}-part.json")
    for suite in RERUN_SUITES:
        def same(suite=suite):
            if state.tj.cli.main(["verify", suite, *ARGV[2:], "--out", part]) != 0:
                return False
            with open(part, encoding="utf-8") as fh:
                checks = json.load(fh)["checks"]
            return all(_canonical(c) == _canonical(_entry(doc, c["claim"]))
                       for c in checks)
        tally.expect(f"suite {suite} rerun matches the full report", same)
    if os.path.exists(part):
        os.remove(part)


def _check_kernels(state: State, tally) -> None:
    kernels = state.tj.kernels
    params = state.tj.basis.JacobiParams(ALPHA, BETA)
    cfg = state.spec.truncation()
    x = np.cos(np.concatenate([state.theta, state.phi]))
    for a, b in ((ALPHA, BETA), (ALPHA + 1.0, BETA + 1.0)):
        tally.expect(f"reference recurrence matches eval_jacobi at ({a:g}, {b:g})",
                     lambda a=a, b=b: gap_within(
                         ref.spot_check(a, b, (0, 1, 2, 7, 100, 1000, 9000), x), 1e-8))
    for comp, series in (("even", ref.kernel_even), ("odd", ref.kernel_odd)):
        def close(comp=comp, series=series):
            want, scale = series(ALPHA, BETA, state.theta, state.phi, state.times,
                                 with_scale=True)
            got = kernels.poisson_kernel(params, comp).eval_pairs(
                state.theta, state.phi, state.times, cfg)
            return gap_within(np.max(np.abs(got - want) / scale), KERNEL_TOL)
        tally.expect(f"{comp} kernel at sampled sweep points down to "
                     f"t={state.times[0]:g} matches the reference", close)


def _check_domination(state: State, doc: dict, tally) -> None:
    """Recompute odd-dominated-by-even from reference kernel values on the
    base and the refined sweep."""
    def band_maxima(spec):
        maxima, lowest = [], math.inf
        for _, th, ph in spec.bands():
            even = ref.kernel_even(ALPHA, BETA, th, ph, DOMINATION_TIMES)
            odd = ref.kernel_odd(ALPHA, BETA, th, ph, DOMINATION_TIMES)
            lowest = min(lowest, float(even.min()))
            maxima.append(float(np.max(np.abs(odd) / even)))
        return maxima, lowest

    base, low1 = band_maxima(state.spec)
    refined, low2 = band_maxima(state.spec.refined())
    want = max(base + refined)

    def same():
        e = _entry(doc, "odd-dominated-by-even")
        levels = [lv["max_ratio"] for lv in e["levels"]]
        return (gap_within(abs(e["constant"] - want) / want, 1e-8)
                and np.allclose(levels, base, rtol=1e-8, atol=0.0))
    tally.expect("odd-dominated-by-even recomputed from reference values", same)
    tally.expect("even kernel positive on the sweep (reference)",
                 lambda: min(low1, low2) > 0.0
                 and _entry(doc, "even-kernel-positive")["passed"])
