"""Sweep sampling before and after: writes BENCH_sweep_sampling.json.

    python3 tools/bench_sweep_sampling.py --base REV [--pairs 10] [--seconds 12]

Compares a git revision REV of this repository (the base, unpacked with
`git archive` into a temporary directory) with the working tree:

- `perfbench/run.py` on each workload in each tree, the two alternated
  (which goes first alternating too), one seed per pair, and the median
  [q1, q3] of each end-to-end metric: verify-quick runs the sweeps, and
  kernel-grid and operators, which run no sweep code, should not move;
- the `sweep-kernels` entry of `verify all --profile quick --timings` at
  (0, 0), median over warm in-process runs;
- the quick sweep's unique pairs, time nodes and term samples at (0, 0):
  pairs times the sum of the series lengths over every job and time of the
  sweep's shared `eval_kernels` call.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("verify-quick", "kernel-grid", "operators")

# run in a tree's own interpreter with its src/ first on the path
PROBE = r"""
import json, statistics, sys
from trigjacobi import verify
from trigjacobi.basis import JacobiParams
params, calls = JacobiParams(0.0, 0.0), []
original = verify.eval_kernels
def recorded(jobs, theta, phi, cfg=verify.DEFAULT_TRUNCATION):
    calls.append(sum(cfg.series_length(h.table_params, float(t), h.orders)
                     for h, ts in jobs for t in ts) * len(theta))
    return original(jobs, theta, phi, cfg)
verify.eval_kernels = recorded
spec = verify.QUICK_SWEEP
verify.run_suite("all", params, "quick")
samples = max(calls)  # the shared sweep call
verify.eval_kernels = original
sweep = [verify.run_suite("all", params, "quick", timings=True)["timings"]["sweep-kernels"]
         for _ in range(int(sys.argv[1]))]
print(json.dumps({"unique_pairs": len(set(zip(*(a.tolist() for a in spec.pairs()[1:])))),
                  "pairs_evaluated": int(spec.pairs()[0].size),
                  "time_nodes": int(spec.tgrid().nodes.size),
                  "term_samples": samples,
                  "sweep_kernels_s": statistics.median(sweep)}))
"""


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": xs}


def bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=tree, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} is not correct in {tree}: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def probe(tree: str, runs: int) -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    out = subprocess.run([sys.executable, "-c", PROBE, str(runs)], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def machine() -> dict:
    import numpy
    import scipy
    model = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                  if line.startswith("model name")), platform.processor())
    return {"platform": platform.platform(), "cpu": model, "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=12.0)
    args = parser.parse_args()
    rev = subprocess.run(["git", "rev-parse", "--short", args.base], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory() as base:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", base], input=archive, check=True)
        trees = {"base": base, "change": ROOT}
        runs = {(w, name): [] for w in WORKLOADS for name in trees}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for w in WORKLOADS:
                for name in order:
                    runs[w, name].append(bench(trees[name], w, i + 1, args.seconds))
                print(f"pair {i + 1} {w}: " + ", ".join(
                    f"{name} {runs[w, name][-1]['wall_s']:.4f} s" for name in trees),
                    file=sys.stderr)
        probes = {name: probe(tree, 15) for name, tree in trees.items()}
    workloads = {}
    for w in WORKLOADS:
        base_runs, change_runs = runs[w, "base"], runs[w, "change"]
        workloads[w] = {name: {m: quartiles([r[m] for r in runs[w, name]]) for m in base_runs[0]}
                        for name in trees}
        workloads[w]["wall_s_change_faster_pairs"] = (
            f"{sum(c['wall_s'] < b['wall_s'] for b, c in zip(base_runs, change_runs))}"
            f"/{args.pairs}")
    doc = {"command": f"python3 tools/bench_sweep_sampling.py --base {rev} "
                      f"--pairs {args.pairs} --seconds {args.seconds:g}",
           "base": rev, "machine": machine(), "workloads": workloads, "sweep": probes}
    with open(os.path.join(ROOT, "BENCH_sweep_sampling.json"), "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
