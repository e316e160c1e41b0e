"""Spans and counts at the public boundaries of trigjacobi's layers.

The tracer wraps public functions from outside the package: it swaps each
target for a wrapper in every loaded trigjacobi module that holds it
(including names that one module imported from another) and swaps the
originals back afterwards. Spans (group, start, end, parent) and per-span
counts are kept in memory; `metrics` turns one round's spans into the
per-layer figures, and `dump` writes the spans out.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

PACKAGE = "trigjacobi"
# (module, attribute, group); "A.b" targets an attribute of class A
TARGETS = (
    ("basis", "jacobi_table", "basis.jacobi_table"),
    ("basis", "trig_poly_table", "basis.table_build"),
    ("basis", "odd_factor_table", "basis.table_build"),
    ("basis", "eval_basis", "basis.eval_basis"),
    ("kernels", "KernelHandle.eval_pairs", "kernels.eval_pairs"),
    ("kernels", "KernelHandle.eval_matrix", "kernels.eval_matrix"),
    ("kernels", "TruncationConfig.series_length", "kernels.series_length"),
    ("measure", "ball_measure", "measure.ball_measure"),
    ("quadrature", "gauss_jacobi_grid", "quadrature.gauss_jacobi_grid"),
    ("quadrature", "TGrid.__init__", "quadrature.tgrid"),
    ("quadrature", "t_norm", "quadrature.t_norm"),
    ("operators", "apply_operator", "operators.apply"),
    ("operators", "apply_restricted", "operators.apply"),
    ("operators", "nonsym_apply", "operators.apply"),
    ("operators", "transfer_function_setting", "operators.apply"),
    ("operators", "expand", "operators.expand"),
    ("operators", "expand_restricted", "operators.expand"),
    ("operators", "synthesize", "operators.synthesize"),
    ("verify", "run_suite", "verify.run_suite"),
    ("verify", "check_standard_estimates", "verify.standard_estimates"),
    ("verify", "check_lemma_instances", "verify.lemma_ratios"),
    ("verify", "check_domination", "verify.domination"),
    ("verify", "ratio_sweep_report", "verify.ratio_sweep"),
)

_KERNEL_EVALS = ("kernels.eval_pairs", "kernels.eval_matrix")


def _jacobi_counts(args, kwargs, result):
    nmax = int(args[1] if len(args) > 1 else kwargs["nmax"])
    points = int(np.size(args[2] if len(args) > 2 else kwargs["x"]))
    return {"steps": nmax, "point_steps": nmax * points}


def _pairs_counts(args, kwargs, result):
    return {"pairs": int(np.shape(result)[0])}


def _matrix_counts(args, kwargs, result):
    return {"pairs": int(np.size(result))}


# counts a span records from its call: group -> f(args, kwargs, result)
_COUNTERS = {
    "basis.jacobi_table": _jacobi_counts,
    "kernels.eval_pairs": _pairs_counts,
    "kernels.eval_matrix": _matrix_counts,
}


class Tracer:
    """Collects spans of one round at a time; install() before the round's
    calls and uninstall() after them."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._swaps: list[tuple[object, str, object, object]] = []

    # --- wrapping ---------------------------------------------------------
    def _wrap(self, group: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = _COUNTERS.get(group)

        if group == "kernels.series_length":
            # not a span: the length lands on the kernel evaluation that asked
            @functools.wraps(fn)
            def series_length(*args, **kwargs):
                n = fn(*args, **kwargs)
                if stack:
                    spans[stack[-1]][4].setdefault("terms", []).append(n)
                return n
            return series_length

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [group, clock(), 0.0, stack[-1] if stack else -1, {}]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4].update(counter(args, kwargs, result))
            return result
        return wrapper

    def install(self) -> None:
        if self._swaps:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for modname, attr, group in TARGETS:
            home = sys.modules[f"{PACKAGE}.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._swap(cls, meth, orig, self._wrap(group, orig))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(group, orig)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._swap(mod, name, orig, wrapped)

    def _swap(self, owner, name, orig, wrapped) -> None:
        setattr(owner, name, wrapped)
        self._swaps.append((owner, name, orig, wrapped))

    def uninstall(self) -> None:
        for owner, name, orig, _ in reversed(self._swaps):
            setattr(owner, name, orig)
        self._swaps.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    # --- reduction --------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer figures of the spans recorded since the last reset."""
        return span_metrics(self.spans)

    def dump(self, path: str, meta: dict) -> None:
        groups = sorted({s[0] for s in self.spans})
        gid = {g: i for i, g in enumerate(groups)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(meta, groups=groups, fields=["group", "start_s", "end_s", "parent"],
                   spans=[[gid[g], round(s - t0, 9), round(e - t0, 9), p]
                          for g, s, e, p, _ in self.spans])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


_UNITS = {"basis.point_steps_per_s": "1/s", "kernels.term_samples_per_s": "1/s",
          "kernels.table_builds_per_eval": "ratio", "cli.report_bytes": "bytes"}


def unit(name: str) -> str:
    """Unit of a per-layer metric: times end in .s or _s, the rest are counts."""
    return _UNITS.get(name, "s" if name.endswith((".s", "_s")) else "count")


def span_metrics(spans: list[list]) -> dict[str, float]:
    n = len(spans)
    dur = [e - s for _, s, e, _, _ in spans]
    child = [0.0] * n
    ancestors: list[frozenset] = [frozenset()] * n
    for i, (group, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            ancestors[i] = ancestors[parent] | {spans[parent][0]}

    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    self_s: dict[str, float] = {}
    totals = {"steps": 0, "point_steps": 0, "term_samples": 0}
    max_terms = 0
    builds_in_evals = 0
    for i, (group, _, _, _, extra) in enumerate(spans):
        self_s[group] = self_s.get(group, 0.0) + dur[i] - child[i]
        if group not in ancestors[i]:
            calls[group] = calls.get(group, 0) + 1
            secs[group] = secs.get(group, 0.0) + dur[i]
            if group == "basis.table_build" and ancestors[i] & set(_KERNEL_EVALS):
                builds_in_evals += 1
        totals["steps"] += extra.get("steps", 0)
        totals["point_steps"] += extra.get("point_steps", 0)
        terms = extra.get("terms", ())
        totals["term_samples"] += sum(terms) * extra.get("pairs", 0)
        max_terms = max([max_terms, *terms])

    def c(g):
        return calls.get(g, 0)

    def s(g):
        return secs.get(g, 0.0)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    evals = c("kernels.eval_pairs") + c("kernels.eval_matrix")
    eval_s = s("kernels.eval_pairs") + s("kernels.eval_matrix")
    suites = (s("verify.standard_estimates") + s("verify.lemma_ratios")
              + s("verify.domination"))
    return {
        "basis.jacobi_table.calls": c("basis.jacobi_table"),
        "basis.jacobi_table.s": s("basis.jacobi_table"),
        "basis.jacobi_table.steps": totals["steps"],
        "basis.jacobi_table.point_steps": totals["point_steps"],
        "basis.point_steps_per_s": ratio(totals["point_steps"], s("basis.jacobi_table")),
        "basis.table_builds": c("basis.table_build"),
        "basis.eval_basis.calls": c("basis.eval_basis"),
        "basis.eval_basis.s": s("basis.eval_basis"),
        "kernels.eval_pairs.calls": c("kernels.eval_pairs"),
        "kernels.eval_pairs.s": s("kernels.eval_pairs"),
        "kernels.eval_matrix.calls": c("kernels.eval_matrix"),
        "kernels.eval_matrix.s": s("kernels.eval_matrix"),
        "kernels.self_s": (self_s.get("kernels.eval_pairs", 0.0)
                           + self_s.get("kernels.eval_matrix", 0.0)),
        "kernels.series_terms.max": max_terms,
        "kernels.term_samples": totals["term_samples"],
        "kernels.term_samples_per_s": ratio(totals["term_samples"], eval_s),
        "kernels.table_builds_per_eval": ratio(builds_in_evals, evals),
        "measure.ball_measure.calls": c("measure.ball_measure"),
        "measure.ball_measure.s": s("measure.ball_measure"),
        "quadrature.gauss_jacobi_grid.calls": c("quadrature.gauss_jacobi_grid"),
        "quadrature.gauss_jacobi_grid.s": s("quadrature.gauss_jacobi_grid"),
        "quadrature.tgrid.calls": c("quadrature.tgrid"),
        "quadrature.tgrid.s": s("quadrature.tgrid"),
        "quadrature.t_norm.s": s("quadrature.t_norm"),
        "operators.apply.calls": c("operators.apply"),
        "operators.apply.s": s("operators.apply"),
        "operators.expand.s": s("operators.expand"),
        "operators.synthesize.s": s("operators.synthesize"),
        "operators.self_s": self_s.get("operators.apply", 0.0),
        "verify.standard_estimates.s": s("verify.standard_estimates"),
        "verify.lemma_ratios.s": s("verify.lemma_ratios"),
        "verify.domination.s": s("verify.domination"),
        "verify.other_suites.s": max(s("verify.run_suite") - suites, 0.0),
        "verify.ratio_sweeps": c("verify.ratio_sweep"),
    }
