"""Acceptance gate: ten criteria, one test each, at their stated tolerances
and time budgets. Run with -v to get the per-criterion pass/fail lines."""

import json
import math
import time

import numpy as np
import pytest

from trigjacobi.basis import (SYM_FN, SYM_POLY, TRIG_POLY, BasisElement,
                              JacobiParams, coeff_A, coeff_A_prime, eigenvalue,
                              eval_basis, jacobi_operator_rows, psi)
from trigjacobi.kernels import DiscreteMeasure
from trigjacobi.operators import (OperatorSpec, apply_operator, grid_function)
from trigjacobi.quadrature import gauss_jacobi_grid
from trigjacobi.verify import (FULL_SWEEP, check_chain_routes,
                               check_domination, check_lemma_instances,
                               check_semigroup_law, check_sharp_constants,
                               check_shift_identity, check_standard_estimates,
                               check_weight_classes)

PAIRS = [(0.0, 0.0), (-0.5, -0.5), (1.5, -0.7), (-0.7, -0.6), (2.5, 3.5)]


class Stopwatch:
    def __init__(self, budget: float):
        self.budget = budget
        self.start = time.perf_counter()

    def check(self, label: str):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, (
            f"{label} took {elapsed:.1f}s, budget {self.budget:.0f}s")
        return elapsed


def announce(k: int, label: str, elapsed: float, detail: str):
    print(f"criterion {k:02d} [{label}]: PASS in {elapsed:.1f}s — {detail}")


def test_criterion_01_sharp_constants():
    clock = Stopwatch(10.0)
    reports = check_sharp_constants(ngrid=1024)
    bounds = (1.0 / (4.0 * math.pi), 1.0 / 16.0, 1.0 / math.pi)
    for rep, bound in zip(reports[:3], bounds):
        assert rep.passed
        assert rep.details["constant"] == bound
        assert rep.details["grid_max"] <= bound * (1.0 + 1e-9)
        assert rep.details["approach_rel_error"] <= 1e-9
    diag = reports[3]
    assert diag.passed and diag.constant <= 1e-9 / 16.0
    elapsed = clock.check("sharp constants")
    announce(1, "sharp constants", elapsed,
             "grid suprema within 1e-9 of 1/(4pi), 1/16, 1/pi; "
             "second ratio attains 1/16 on the diagonal")


def test_criterion_02_orthonormality():
    clock = Stopwatch(30.0)
    worst = 0.0
    for ab in PAIRS:
        params = JacobiParams(*ab)
        for kind, tag in ((SYM_POLY, "mu_full"), (TRIG_POLY, "mu_plus"),
                          (SYM_FN, "theta_full")):
            grid = gauss_jacobi_grid(params, 64, tag)
            V = np.stack([eval_basis(BasisElement(params, n, kind), grid.nodes)
                          for n in range(21)])
            gram = (V * grid.weights) @ V.T
            dev = float(np.max(np.abs(gram - np.eye(21))))
            assert dev <= 1e-8, f"{ab} {kind}: {dev}"
            worst = max(worst, dev)
    elapsed = clock.check("orthonormality")
    announce(2, "orthonormality", elapsed,
             f"max Gram deviation {worst:.2e} over three families x five "
             "parameter pairs, indices to 20")


def test_criterion_03_spectral_identities():
    clock = Stopwatch(60.0)
    theta = np.concatenate([np.linspace(-math.pi + 0.05, -0.05, 120),
                            np.linspace(0.05, math.pi - 0.05, 120)])
    worst_eig = 0.0
    for ab in PAIRS:
        params = JacobiParams(*ab)
        for n in range(13):
            elem = BasisElement(params, n, SYM_POLY)
            lam = elem.lam
            res = np.max(np.abs(jacobi_operator_rows(params, [n], theta)[0][0]
                                - lam * eval_basis(elem, theta)))
            assert res <= 1e-6 * (1.0 + lam), f"{ab} n={n}: {res}"
            worst_eig = max(worst_eig, res / (1.0 + lam))

    # conjugation: the function-setting operator with potential
    # lam0 + A'/2 + A^2/4 (minus A' on the odd part) applied to psi*f, with
    # the second derivative taken by five-point finite differences, must
    # match psi * (differential application to f)
    worst_conj = 0.0
    h = 1e-3
    sample = np.concatenate([np.linspace(-math.pi + 0.3, -0.3, 60),
                             np.linspace(0.3, math.pi - 0.3, 60)])
    rng = np.random.default_rng(11)
    for ab in PAIRS:
        params = JacobiParams(*ab)
        coefs = rng.standard_normal(11)
        coefs /= np.linalg.norm(coefs)
        elems = [BasisElement(params, n, SYM_POLY) for n in range(11)]

        def f_at(th, parity=None):
            out = np.zeros(th.shape)
            for c, e in zip(coefs, elems):
                if parity is None or e.parity == parity:
                    out += c * eval_basis(e, th)
            return out

        def g_at(th):
            return psi(params, th) * f_at(th)

        stencil = (-g_at(sample - 2 * h) + 16 * g_at(sample - h)
                   - 30 * g_at(sample) + 16 * g_at(sample + h)
                   - g_at(sample + 2 * h)) / (12.0 * h * h)
        A = coeff_A(params, sample)
        A1 = coeff_A_prime(params, sample)
        v_even = params.lam0 + 0.5 * A1 + 0.25 * A * A
        lhs = (-stencil + v_even * g_at(sample)
               - A1 * psi(params, sample) * f_at(sample, "odd"))
        rows = jacobi_operator_rows(params, np.arange(11), sample)[0]
        rhs = psi(params, sample) * (coefs @ rows)
        res = float(np.max(np.abs(lhs - rhs)))
        assert res <= 1e-6, f"{ab}: conjugation residual {res}"
        worst_conj = max(worst_conj, res)

    worst_law = 0.0
    for ab in PAIRS:
        rep = check_semigroup_law(JacobiParams(*ab))
        assert rep.passed and rep.constant <= 1e-6
        worst_law = max(worst_law, rep.constant)
    elapsed = clock.check("spectral identities")
    announce(3, "spectral identities", elapsed,
             f"eigen residual {worst_eig:.2e} (vs 1e-6 scale), conjugation "
             f"{worst_conj:.2e}, semigroup law {worst_law:.2e}")


def test_criterion_04_kernel_cross_paths():
    clock = Stopwatch(120.0)
    worst_shift, worst_chain = 0.0, 0.0
    for ab in PAIRS:
        params = JacobiParams(*ab)
        rep = check_shift_identity(params)
        assert rep.passed and rep.constant <= 1e-8, f"{ab}: {rep.constant}"
        worst_shift = max(worst_shift, rep.constant)
        rep = check_chain_routes(params)
        assert rep.passed and rep.constant <= 1e-6, f"{ab}: {rep.constant}"
        worst_chain = max(worst_chain, rep.constant)
    elapsed = clock.check("kernel cross paths")
    announce(4, "kernel cross paths", elapsed,
             f"shift identity {worst_shift:.2e} (tol 1e-8), chain routes to "
             f"order four {worst_chain:.2e} (tol 1e-6)")


def test_criterion_05_domination():
    clock = Stopwatch(120.0)
    worst, within = 0.0, 0
    for ab in PAIRS:
        reports = check_domination(JacobiParams(*ab), FULL_SWEEP)
        for rep in reports:
            assert rep.passed, f"{ab}: {rep.claim}"
        main = reports[0]
        assert max(main.drift, 1.0 / main.drift) < 2.0
        worst = max(worst, main.constant)
        within += main.details["within_unit_constant"]
    elapsed = clock.check("domination")
    announce(5, "domination", elapsed,
             f"ratio finite and refinement-stable for all five pairs "
             f"including both-below-minus-half; max observed constant "
             f"{worst:.4f}, {within} of 5 pairs within 1")


def test_criterion_06_standard_estimates():
    clock = Stopwatch(900.0)
    count = 0
    for ab in PAIRS:
        reports = check_standard_estimates(JacobiParams(*ab), FULL_SWEEP,
                                           "full")
        for rep in reports:
            assert rep.passed, f"{ab}: {rep.claim} constant={rep.constant}"
            assert max(rep.drift, 1.0 / rep.drift) < 2.0
        count += len(reports)
    elapsed = clock.check("standard estimates")
    announce(6, "standard estimates", elapsed,
             f"{count} growth/smoothness/gradient sweeps bounded with "
             "refinement drift under 2x across five parameter pairs")


def test_criterion_07_closed_form_operators():
    clock = Stopwatch(30.0)
    for ab in ((1.5, -0.7), (0.0, 0.0)):
        params = JacobiParams(*ab)
        grid = gauss_jacobi_grid(params, 64, "mu_full")
        for n in (3, 8):
            elem = BasisElement(params, n, SYM_POLY)
            f = grid_function(grid, lambda th: eval_basis(elem, th))
            lam = elem.lam
            for M in (1, 2):
                got = apply_operator(OperatorSpec("square", M=M), f, 16).values
                want = math.sqrt(math.gamma(2.0 * M) / 4.0 ** M) * np.abs(f.values)
                assert np.max(np.abs(got - want)) <= 1e-4 * np.max(want)
            got = apply_operator(OperatorSpec("riesz", N=2), f, 16).values
            want = (params.lam0 - lam) / lam * f.values
            assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))
            t0 = 0.75
            atom = apply_operator(
                OperatorSpec("multiplier",
                             multiplier=DiscreteMeasure((t0,), (1.0,))),
                f, 16).values
            semi = apply_operator(OperatorSpec("semigroup", t=t0), f, 16).values
            assert np.array_equal(atom, semi)
    elapsed = clock.check("closed-form operators")
    announce(7, "closed-form operators", elapsed,
             "square-function and second-order chain eigenvalue laws hold, "
             "unit-atom multiplier equals the semigroup bit for bit")


def test_criterion_08_weight_classes():
    clock = Stopwatch(5.0)
    for ab in ((1.5, -0.7), (-0.7, -0.6)):
        reports = check_weight_classes(JacobiParams(*ab), n_samples=10000)
        assert reports[0].passed and reports[0].constant == 0.0
        assert reports[1].passed
    elapsed = clock.check("weight classes")
    announce(8, "weight classes", elapsed,
             "shift equivalence exact on 10^4 samples per pair, unweighted "
             "admissibility window matches the closed form")


def test_criterion_09_lemma_ratio_suite():
    clock = Stopwatch(600.0)
    reports = check_lemma_instances(JacobiParams(1.5, -0.7), FULL_SWEEP,
                                    "full")
    assert len(reports) == 39
    for rep in reports:
        assert rep.passed, f"{rep.claim} constant={rep.constant}"
    elapsed = clock.check("lemma ratios")
    announce(9, "lemma ratios", elapsed,
             "all 39 weighted time-norm ratio instances bounded and stable")


def test_criterion_10_determinism_and_budget(capsys):
    import trigjacobi.cli as cli

    clock = Stopwatch(600.0)
    args = ["verify", "all", "--profile", "quick", "--seed", "0"]
    t0 = time.perf_counter()
    rc1 = cli.main(args)
    one_run = time.perf_counter() - t0
    first = capsys.readouterr().out
    rc2 = cli.main(args)
    second = capsys.readouterr().out
    assert rc1 == 0 and rc2 == 0
    assert first == second, "reports differ between identical runs"
    assert one_run < 300.0, f"quick suite took {one_run:.1f}s"
    doc = json.loads(first)
    assert doc["passed"] and doc["schema_version"] == 1
    elapsed = clock.check("determinism")
    with capsys.disabled():
        announce(10, "determinism", elapsed,
                 f"verify all --quick byte-identical across reruns, "
                 f"one run in {one_run:.1f}s")
