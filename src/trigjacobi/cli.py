"""Command line front end.

Two commands: `eval` writes CSV tables of basis, kernel, or operator values,
`verify` runs a named check suite and writes its JSON report. Every output
starts with the serialized run configuration, and equal configurations give
byte-identical files. Exit codes: 0 pass, 1 a gating check failed, 2 bad
configuration, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .basis import (JACOBI_FN, SYM_FN, SYM_POLY, TRIG_POLY, BasisElement,
                    JacobiParams, basis_matrix, eval_basis)
from .kernels import (DiscreteMeasure, TruncationConfig, TruncationError,
                      poisson_kernel, symmetrized_kernel_pairs)
from .operators import (OPERATOR_KINDS, OperatorSpec, apply_operator,
                        apply_restricted, grid_function, nonsym_apply)
from .quadrature import TAG_KINDS, TGrid, gauss_jacobi_grid
from .verify import FULL_SWEEP, QUICK_SWEEP, SUITES, report_json, run_suite

# setting name -> quadrature tag; the tag's kind is the bundled element's
SETTING_MAP = {"poly-sym": "mu_full", "fn-sym": "theta_full",
               "poly+": "mu_plus", "fn+": "theta_plus"}


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on; serialized into every output header."""

    command: str
    alpha: float = 0.0
    beta: float = 0.0
    suite: str | None = None
    setting: str | None = None
    kind: str | None = None
    n: int | None = None
    N: int = 0
    M: int = 0
    t: float | None = None
    theta: tuple[float, ...] | None = None
    phi: tuple[float, ...] | None = None
    atom_t: tuple[float, ...] | None = None
    atom_w: tuple[float, ...] | None = None
    p: float | None = None
    weight_r: float | None = None
    weight_s: float | None = None
    t_min: float | None = None
    t_max: float | None = None
    eps_tail: float = 1e-10
    grid: int | None = None
    seed: int = 0
    out: str | None = None
    profile: str = "quick"
    timings: bool = False
    version: str = __version__

    def __post_init__(self):
        if self.grid is not None and self.grid < 1:
            raise ValueError("--grid must be positive")


def _float_list(text: str | None) -> tuple[float, ...] | None:
    if text is None:
        return None
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"expected a comma-separated list of numbers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="trigjacobi", allow_abbrev=False,
        description="Evaluate trigonometric Jacobi objects and run the "
                    "verification suites.")
    top.add_argument("--version", action="version",
                     version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    # each command takes only the flags it reads, each only as spelled
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--alpha", type=float, default=0.0,
                        help="first type parameter (default 0)")
    common.add_argument("--beta", type=float, default=0.0,
                        help="second type parameter (default 0)")
    common.add_argument("--grid", type=int, default=None,
                        help="point count / quadrature order / certification "
                             "grid size, depending on the command")
    common.add_argument("--out", default=None,
                        help="output file (default stdout)")
    times = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    times.add_argument("--t-min", type=float, default=None, dest="t_min",
                       help="lower end of the time grid")
    times.add_argument("--t-max", type=float, default=None, dest="t_max",
                       help="upper end of the time grid")

    ev = sub.add_parser("eval", allow_abbrev=False, help="write CSV tables of computed values")
    targets = ev.add_subparsers(dest="target", required=True)

    b = targets.add_parser("basis", parents=[common], allow_abbrev=False,
                           help="sample one basis element")
    b.add_argument("--kind", choices=(TRIG_POLY, JACOBI_FN, SYM_POLY, SYM_FN),
                   default=SYM_POLY)
    b.add_argument("--n", type=int, default=0, help="element index")

    k = targets.add_parser("kernel", parents=[common], allow_abbrev=False,
                           help="sample a semigroup kernel")
    k.add_argument("--kind", choices=("even", "odd", "sym"), default="sym")
    k.add_argument("--t", type=float, required=True, help="time parameter")
    k.add_argument("--theta", default=None,
                   help="comma-separated first arguments (default: a grid)")
    k.add_argument("--phi", default=None,
                   help="comma-separated second arguments")
    k.add_argument("--eps-tail", type=float, default=1e-10,
                   dest="eps_tail", help="series tail target")

    o = targets.add_parser("operator", parents=[common, times], allow_abbrev=False,
                           help="apply an operator to a bundled basis element")
    o.add_argument("--kind", choices=OPERATOR_KINDS, required=True)
    o.add_argument("--setting", choices=tuple(SETTING_MAP), default="poly-sym")
    o.add_argument("--n", type=int, default=5, help="index of the input element")
    o.add_argument("--t", type=float, default=None, help="semigroup time")
    o.add_argument("--M", type=int, default=0, help="time-derivative order")
    o.add_argument("--N", type=int, default=0, help="chain order")
    o.add_argument("--atom-t", default=None, dest="atom_t",
                   help="comma-separated atom positions of a discrete "
                        "multiplier measure")
    o.add_argument("--atom-w", default=None, dest="atom_w",
                   help="matching atom weights (default: all ones)")

    v = sub.add_parser("verify", parents=[common, times], allow_abbrev=False,
                       help="run a check suite and write its JSON report")
    v.add_argument("suite", choices=SUITES)
    v.add_argument("--seed", type=int, default=0,
                   help="seed for randomized probes")
    v.add_argument("--profile", choices=("quick", "full"),
                   default="quick", help="preset grid sizes")
    v.add_argument("--p", type=float, default=None,
                   help="exponent for the lp-sweep suite")
    v.add_argument("--weight-r", type=float, default=None, dest="weight_r",
                   help="power of the first weight factor (lp-sweep)")
    v.add_argument("--weight-s", type=float, default=None, dest="weight_s",
                   help="power of the second weight factor (lp-sweep)")
    v.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (makes output vary "
                        "between runs)")
    return top


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The flags the command took; RunConfig's defaults fill in the rest."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)
             if hasattr(args, f.name)}
    for key in ("theta", "phi", "atom_t", "atom_w"):
        if key in given:
            given[key] = _float_list(given[key])
    given["command"] = "verify" if args.command == "verify" else f"eval {args.target}"
    return RunConfig(**given)


def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _csv_text(cfg: RunConfig, fields: tuple[str, ...], rows) -> str:
    buf = io.StringIO()
    buf.write("# " + json.dumps(dataclasses.asdict(cfg), sort_keys=True) + "\r\n")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_format_cell(v) for v in row])
    return buf.getvalue()


def _sample_nodes(lo: float, hi: float, count: int) -> np.ndarray:
    # cell midpoints: stays inside the open interval where the weight
    # functions can blow up
    return lo + (np.arange(count) + 0.5) * (hi - lo) / count


def _require_finite(values: np.ndarray, label: str) -> None:
    if not np.all(np.isfinite(values)):
        raise TruncationError(f"{label} produced non-finite values")


def _eval_basis(cfg: RunConfig) -> str:
    params = JacobiParams(cfg.alpha, cfg.beta)
    elem = BasisElement(params, cfg.n, cfg.kind)
    lo = -math.pi if cfg.kind in (SYM_POLY, SYM_FN) else 0.0
    theta = _sample_nodes(lo, math.pi, cfg.grid or 256)
    values = eval_basis(elem, theta)
    _require_finite(values, "basis evaluation")
    return _csv_text(cfg, ("theta", "value"), zip(theta, values))


def _eval_kernel(cfg: RunConfig) -> str:
    params = JacobiParams(cfg.alpha, cfg.beta)
    trunc = TruncationConfig(eps_tail=cfg.eps_tail)
    if (cfg.theta is None) != (cfg.phi is None):
        raise ValueError("--theta and --phi must be given together")
    lo = -math.pi if cfg.kind == "sym" else 0.0
    if cfg.theta is not None:
        theta = np.asarray(cfg.theta, dtype=float)
        phi = np.asarray(cfg.phi, dtype=float)
        if theta.size == 1:
            theta = np.full(phi.shape, theta[0])
        if phi.size == 1:
            phi = np.full(theta.shape, phi[0])
        if theta.shape != phi.shape:
            raise ValueError("--theta and --phi lists differ in length")
        # NaN fails both comparisons
        if not np.all((lo <= theta) & (theta <= math.pi) & (lo <= phi) & (phi <= math.pi)):
            raise ValueError(f"the {cfg.kind} kernel takes angles in "
                             f"[{'-pi' if lo else '0'}, pi]")
    else:
        count = cfg.grid or 32
        axis = _sample_nodes(lo, math.pi, count)
        th, ph = np.meshgrid(axis, axis, indexing="ij")
        theta, phi = th.ravel(), ph.ravel()
    if cfg.kind == "sym":
        values = symmetrized_kernel_pairs(params, theta, phi, cfg.t,
                                          cfg=trunc)[:, 0]
    else:
        handle = poisson_kernel(params, cfg.kind)
        values = handle.eval_pairs(theta, phi, cfg.t, trunc)[:, 0]
    _require_finite(values, "kernel evaluation")
    return _csv_text(cfg, ("theta", "phi", "t", "value"),
                     ((a, b, cfg.t, v) for a, b, v in zip(theta, phi, values)))


def _time_bounds(cfg: RunConfig) -> dict:
    """The time bounds the run was given, by field name; the others keep
    their defaults."""
    return {k: v for k, v in (("t_min", cfg.t_min), ("t_max", cfg.t_max)) if v is not None}


def _eval_operator(cfg: RunConfig) -> str:
    params = JacobiParams(cfg.alpha, cfg.beta)
    tag = SETTING_MAP[cfg.setting]
    order = cfg.grid or 64
    nmax = order // 2 - 1
    if cfg.n > nmax:
        raise ValueError(f"--n {cfg.n} needs --grid at least {2 * (cfg.n + 1)}")
    grid = gauss_jacobi_grid(params, order, tag)
    f = grid_function(grid, basis_matrix(params, TAG_KINDS[tag], [cfg.n], grid)[0])

    bounds = _time_bounds(cfg)
    multiplier = None
    if cfg.atom_t is not None:
        multiplier = DiscreteMeasure(cfg.atom_t, cfg.atom_w or (1.0,) * len(cfg.atom_t))
    elif cfg.atom_w is not None:
        raise ValueError("--atom-w weighs the atoms of --atom-t")
    spec = OperatorSpec(cfg.kind, t=cfg.t, N=cfg.N, M=cfg.M,
                        multiplier=multiplier, tgrid=TGrid(**bounds) if bounds else None)

    if cfg.setting in ("poly-sym", "fn-sym"):
        g = apply_operator(spec, f, nmax)
    elif cfg.setting == "fn+":
        g = nonsym_apply(spec, f, nmax)
    else:
        g = apply_restricted(spec, f, nmax, "even")
    _require_finite(g.values, "operator application")
    return _csv_text(cfg, ("theta", "input", "output"),
                     zip(grid.nodes, f.values, g.values))


def _run_verify(cfg: RunConfig) -> tuple[str, int]:
    params = JacobiParams(cfg.alpha, cfg.beta)
    spec = FULL_SWEEP if cfg.profile == "full" else QUICK_SWEEP
    spec = dataclasses.replace(spec, **_time_bounds(cfg))
    ngrid = cfg.grid or 1024
    lp = {}
    if any(v is not None for v in (cfg.p, cfg.weight_r, cfg.weight_s)):
        lp = dict(p=2.0 if cfg.p is None else cfg.p,
                  weights=((cfg.weight_r or 0.0, cfg.weight_s or 0.0),))
    doc = run_suite(cfg.suite, params, cfg.profile, spec=spec, ngrid=ngrid,
                    seed=cfg.seed, timings=cfg.timings, **lp)
    doc["config"] = dataclasses.asdict(cfg)
    return report_json(doc), 0 if doc["passed"] else 1


def run(cfg: RunConfig) -> tuple[str, int]:
    if cfg.command == "verify":
        return _run_verify(cfg)
    if cfg.command == "eval basis":
        return _eval_basis(cfg), 0
    if cfg.command == "eval kernel":
        return _eval_kernel(cfg), 0
    if cfg.command == "eval operator":
        return _eval_operator(cfg), 0
    raise ValueError(f"unknown command {cfg.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        text, code = run(cfg)
    except TruncationError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
