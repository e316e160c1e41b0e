"""Sweep sampling before and after: writes BENCH_sweep_sampling.json.

    python3 tools/bench_sweep_sampling.py --base REV [--pairs 10] [--seconds 12]

Compares a git revision REV of this repository (the base, unpacked with
`git archive` into a temporary directory) with the working tree:

- the alternated `perfbench/run.py` pairs of tools/bench_ab.py on every
  workload, with its summary and verdicts per end-to-end metric:
  verify-quick runs the sweeps, and kernel-grid and operators, which run no
  sweep code, should not move;
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
import subprocess
import sys

from bench_ab import (ROOT, WORKLOADS, alternate, base_tree, compare, machine,
                      rev_parse, write)

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


def probe(tree: str, runs: int) -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    out = subprocess.run([sys.executable, "-c", PROBE, str(runs)], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=12.0)
    args = parser.parse_args()
    rev = rev_parse(args.base)
    with base_tree(rev) as base:
        trees = {"base": base, "change": ROOT}
        runs = alternate(trees, args.pairs, args.seconds)
        probes = {name: probe(tree, 15) for name, tree in trees.items()}
    doc = {"command": f"python3 tools/bench_sweep_sampling.py --base {rev} "
                      f"--pairs {args.pairs} --seconds {args.seconds:g}",
           "base": rev, "machine": machine(),
           "workloads": {w: compare(runs[w, "base"], runs[w, "change"]) for w in WORKLOADS},
           "sweep": probes}
    write("BENCH_sweep_sampling.json", doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
