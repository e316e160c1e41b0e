"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout of the repository and imports trigjacobi
from its src/ directory. `--workload all` runs every workload in turn, each
in its own process, and prints a JSON object keyed by workload last. Prints one JSON object as the last line: with
--trace 0 the end-to-end metrics (setup_s, wall_s, peak_rss_mb), with
--trace 1 the per-layer metrics of a traced run. Spans and the verify report
go to .bench_out/ under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = {"verify-quick": "wl_verify", "kernel-grid": "wl_kernels",
             "operators": "wl_operators"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trigjacobi", "__init__.py")):
        print(f"perfbench: no trigjacobi package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    # the benchmark's own dependencies load before any set-up is timed
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401
    import scipy.special  # noqa: F401

    import harness

    workload = __import__(WORKLOADS[args.workload])
    os.makedirs(OUT_DIR, exist_ok=True)
    result = harness.run(workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: {json.dumps(results[name])}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
