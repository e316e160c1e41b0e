"""A change against a base revision, end to end: writes a BENCH_*.json file.

    python3 tools/bench_ab.py --base REV --out BENCH_NAME.json
        [--pairs 10] [--seconds 12]

Compares a git revision REV of this repository (the base, unpacked with
`git archive` into a temporary directory) with the working tree. Each pair
runs `perfbench/run.py --trace 0` on each workload in both trees, the two
alternated (which goes first alternating too), one seed per pair.

For every workload and every end-to-end metric of BENCHMARK.json it reports
the median [q1, q3] of each side, how many pairs the change wins (better in
the metric's direction), the change of the medians relative to the base,
and two verdicts:

- `claim`: the change wins at least 9 of 10 pairs (the same share of any
  other count) and its median beats the base's by more than the base's
  quartile spread q3 - q1;
- `within_bound`: the change's median is not worse than the base's by more
  than the metric's bound.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("verify-quick", "kernel-grid", "operators")
CLAIM_SHARE = 0.9  # of the pairs the change must win
# variables that move the metrics: without bytecode files every fresh import
# compiles the package, which set-up times; BLAS threads change products' cost
ENVIRONMENT = ("PYTHONDONTWRITEBYTECODE", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": xs}


def metrics() -> dict:
    """The end-to-end metrics of BENCHMARK.json by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m for m in json.load(fh)["end_to_end"]}


def bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in a tree: its end-to-end metrics by name."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=tree, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} is not correct in {tree}: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


@contextlib.contextmanager
def base_tree(rev: str):
    """A temporary directory holding the committed files of revision rev."""
    with tempfile.TemporaryDirectory() as base:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", base], input=archive, check=True)
        yield base


def alternate(trees: dict, pairs: int, seconds: float) -> dict:
    """Runs by (workload, tree name), alternated as the module docstring says."""
    runs = {(w, name): [] for w in WORKLOADS for name in trees}
    for i in range(pairs):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        for w in WORKLOADS:
            for name in order:
                runs[w, name].append(bench(trees[name], w, i + 1, seconds))
            print(f"pair {i + 1} {w}: " + ", ".join(
                f"{name} {runs[w, name][-1]['wall_s']:.4f} s" for name in trees),
                file=sys.stderr)
    return runs


def compare(base_runs: list, change_runs: list) -> dict:
    """Both sides of one workload, and the verdicts, per end-to-end metric."""
    out = {}
    for name, spec in metrics().items():
        base = quartiles([r[name] for r in base_runs])
        change = quartiles([r[name] for r in change_runs])
        sign = 1.0 if spec["better"] == "lower" else -1.0  # > 0: the change is better
        wins = sum(sign * (b[name] - c[name]) > 0.0 for b, c in zip(base_runs, change_runs))
        gain = sign * (base["median"] - change["median"])
        out[name] = {
            "base": base, "change": change,
            "change_wins": f"{wins}/{len(base_runs)}",
            "relative_change": change["median"] / base["median"] - 1.0,
            "claim": bool(wins >= math.ceil(CLAIM_SHARE * len(base_runs))
                          and gain > base["q3"] - base["q1"]),
            "within_bound": bool(-gain <= spec["bound"] * abs(base["median"])),
        }
    return out


def machine() -> dict:
    import numpy
    import scipy
    model = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                  if line.startswith("model name")), platform.processor())
    return {"platform": platform.platform(), "cpu": model, "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "environment": {name: os.environ.get(name, "unset")
                                                        for name in ENVIRONMENT}}


def rev_parse(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout.strip()


def write(path: str, doc: dict) -> None:
    with open(os.path.join(ROOT, path), "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, help="file to write, under the repository")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=12.0)
    args = parser.parse_args()
    rev = rev_parse(args.base)
    with base_tree(rev) as base:
        runs = alternate({"base": base, "change": ROOT}, args.pairs, args.seconds)
    command = (f"python3 tools/bench_ab.py --base {rev} --out {args.out} "
               f"--pairs {args.pairs} --seconds {args.seconds:g}")
    write(args.out, {"command": command, "base": rev, "machine": machine(),
                     "workloads": {w: compare(runs[w, "base"], runs[w, "change"])
                                   for w in WORKLOADS}})
    return 0


if __name__ == "__main__":
    sys.exit(main())
