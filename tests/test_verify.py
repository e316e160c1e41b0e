"""Harness tests: sharp constants, sweeps, reports, determinism."""

import json
import math

import numpy as np
import pytest
from scipy.special import eval_jacobi

import trigjacobi.cli as cli
from trigjacobi import basis, kernels, verify
from trigjacobi.basis import JacobiParams
from trigjacobi.kernels import DEFAULT_TRUNCATION, partial_derivative_kernel, poisson_kernel
from trigjacobi.measure import ball_measure
from trigjacobi.verify import (
    LEMMA_INSTANCES,
    QUICK_SWEEP,
    SweepSpec,
    check_ball_comparability,
    check_chain_routes,
    check_conjugation,
    check_domination,
    check_eigen_residuals,
    check_lemma_instances,
    check_semigroup_law,
    check_sharp_constants,
    check_shift_identity,
    check_spectral_identities,
    check_standard_estimates,
    check_weight_classes,
    empirical_lp_sweep,
    lemma_claim_id,
    ratio_sweep_report,
    report_json,
    run_suite,
)

P = JacobiParams(1.5, -0.7)
ALL_PAIRS = [(0.0, 0.0), (-0.5, -0.5), (1.5, -0.7), (-0.7, -0.6), (2.5, 3.5)]

# three dyadic bands, six pairs each: enough to exercise every code path
# while keeping the series work small
TEST_SWEEP = SweepSpec(n_theta=3, levels=3)


def reject_constant(token):
    raise ValueError(f"{token} is not strict JSON")


class TestSharpConstants:
    def test_all_certified(self):
        reports = check_sharp_constants(ngrid=512)
        assert len(reports) == 4
        assert all(r.passed for r in reports)

    def test_grid_never_exceeds_and_sequence_attains(self):
        reports = check_sharp_constants(ngrid=256)
        for r in reports[:3]:
            C = r.details["constant"]
            assert r.details["grid_max"] <= C * (1.0 + 1e-12)
            assert r.details["approach_rel_error"] <= 1e-9

    def test_diagonal_identity(self):
        rep = check_sharp_constants(ngrid=256)[3]
        assert rep.claim == "sharp-constant-b-diagonal-identity"
        assert rep.constant <= 1e-9

    def test_a_nan_in_a_late_block_fails_the_constant(self, monkeypatch):
        original = verify._sharp_ratios

        def ratios(theta, phi):
            a, b, c = original(theta, phi)
            return np.where(theta > 3.0, np.nan, a), b, c

        monkeypatch.setattr(verify, "_sharp_ratios", ratios)
        rep = check_sharp_constants(ngrid=256)[0]
        assert rep.claim == "sharp-constant-a"
        assert not rep.passed and math.isnan(rep.constant)

    @pytest.mark.parametrize("ngrid", [1000, 1024])
    def test_blocked_maxima_equal_the_full_grid(self, ngrid):
        x = np.linspace(0.0, math.pi, ngrid + 2)[1:-1]
        T, Q = np.meshgrid(x, x, indexing="ij")
        reports = check_sharp_constants(ngrid)
        for rep, ratio in zip(reports, verify._sharp_ratios(T, Q)):
            assert rep.details["grid_max"] == float(np.max(ratio))


class TestSweepContract:
    """ratio_sweep_report reads ratios on every band of both sweeps at once."""

    @staticmethod
    def band_loop(ratio_fn, spec):
        levels, overall = [], 0.0
        for d, theta, phi in spec.bands():
            m = float(np.max(ratio_fn(np.full(theta.size, d), theta, phi)))
            levels.append({"distance": d, "pairs": theta.size, "max_ratio": m})
            overall = max(overall, m)
        return overall, levels

    def test_levels_match_a_loop_over_bands(self):
        def ratio(d, theta, phi):
            return ball_measure(P, theta, d) * np.sin(theta) * phi / d

        rep = ratio_sweep_report("probe", ratio(*TEST_SWEEP.pairs()), TEST_SWEEP)
        base, levels = self.band_loop(ratio, TEST_SWEEP)
        refined, _ = self.band_loop(ratio, TEST_SWEEP.refined())
        assert rep.levels == levels
        assert rep.constant == max(base, refined)
        assert rep.drift == refined / base

    def test_kernel_ratio_matches_a_loop_over_bands(self):
        odd = poisson_kernel(P, "odd")
        ts = np.array([0.05, 0.4, 2.0])

        def ratio(d, theta, phi):
            s = odd.eval_pairs(theta, phi, ts)
            return np.max(np.abs(s), axis=-1) * ball_measure(P, theta, d)

        rep = ratio_sweep_report("probe", ratio(*TEST_SWEEP.pairs()), TEST_SWEEP)
        _, levels = self.band_loop(ratio, TEST_SWEEP)
        for got, want in zip(rep.levels, levels):
            assert got["distance"] == want["distance"]
            assert got["pairs"] == want["pairs"]
            assert got["max_ratio"] == pytest.approx(want["max_ratio"], rel=1e-12)

    def test_ratios_must_cover_the_pairs(self):
        d, _, _ = TEST_SWEEP.pairs()
        with pytest.raises(ValueError, match="ratios"):
            ratio_sweep_report("probe", np.ones(d.size + 1), TEST_SWEEP)

    @pytest.mark.parametrize("where", [8, -1], ids=["base-band", "refined"])
    def test_a_nan_ratio_fails_the_claim(self, where):
        r = np.ones(TEST_SWEEP.pairs()[0].size)
        r[where] = np.nan
        rep = ratio_sweep_report("probe", r, TEST_SWEEP)
        assert not rep.passed
        assert math.isnan(rep.constant) and math.isnan(rep.drift)

    def test_drift_from_a_zero_base(self):
        r = np.zeros(TEST_SWEEP.pairs()[0].size)
        rep = ratio_sweep_report("probe", r, TEST_SWEEP)
        assert rep.passed and rep.drift == 1.0 and rep.constant == 0.0
        # only the refined sweep sees a nonzero ratio: no convergence shown
        r[-1] = 1.0
        rep = ratio_sweep_report("probe", r, TEST_SWEEP)
        assert not rep.passed and rep.drift == math.inf


class TestBallComparability:
    def test_two_sided_and_stable(self):
        reports = check_ball_comparability(P, TEST_SWEEP, xis=(1.0,))
        assert len(reports) == 2
        for r in reports:
            assert r.passed
            assert math.isfinite(r.constant)
            assert max(r.drift, 1.0 / r.drift) < 2.0


class TestIdentitySuite:
    @pytest.mark.parametrize("ab", [(1.5, -0.7), (-0.5, -0.5)])
    def test_all_pass(self, ab):
        doc = run_suite("identities", JacobiParams(*ab), "quick")
        assert doc["passed"]
        claims = {c["claim"] for c in doc["checks"]}
        assert {"eigen-residual", "conjugation-ladder", "semigroup-law",
                "odd-kernel-shift-identity", "chain-route-agreement",
                "riesz-order-two-multiplier",
                "unit-atom-matches-semigroup-bitwise"} <= claims

    @pytest.mark.parametrize("ab", ALL_PAIRS)
    def test_eigen_residuals_equal_the_element_loop(self, monkeypatch, ab):
        # three basis tables for every element, and the constant of a loop
        # over the elements one at a time, bit for bit
        params = JacobiParams(*ab)
        theta = np.linspace(-math.pi + 0.05, math.pi - 0.05, 121)
        theta = theta[np.abs(theta) > 1e-3]
        elems = [basis.BasisElement(params, n, basis.SYM_POLY) for n in range(13)]
        want = max(np.max(np.abs(basis.jacobi_operator_rows(params, [e.index], theta)[0][0]
                                 - e.lam * basis.eval_basis(e, theta))) / (1.0 + e.lam)
                   for e in elems)
        calls, original = [], basis.basis_matrix

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(basis, "basis_matrix", counted)
        rep = check_eigen_residuals(params)
        assert rep.details["nmax"] == 12 and rep.constant == want
        assert calls == [basis.SYM_POLY] * 3

    @pytest.mark.parametrize("ab", ALL_PAIRS)
    def test_shift_identity_holds(self, ab):
        assert check_shift_identity(JacobiParams(*ab)).passed

    def test_shift_identity_does_not_share_the_recurrence(self, monkeypatch):
        # a wrong recurrence coefficient moves the odd kernel, not the
        # check's own reference sum
        original = basis._steps

        def skewed(*args):
            return original(*args) * 1.0001

        monkeypatch.setattr(basis, "_steps", skewed)
        assert not check_shift_identity(P).passed

    @pytest.mark.parametrize("ab", ALL_PAIRS)
    def test_shift_reference_rows_equal_eval_jacobi(self, ab):
        # at the check's points and shifted parameters, every degree of its
        # longest series (t = 0.05)
        params = JacobiParams(*ab)
        shifted = partial_derivative_kernel(params, 1, 0, 0, 0)
        n = DEFAULT_TRUNCATION.series_length(shifted.table_params, 0.05, shifted.orders)
        a, b = params.alpha + 1.0, params.beta + 1.0
        x = np.cos([0.4, 0.9, 1.7, 2.6, 3.0, 0.3, 1.2, 2.1, 0.8, 2.9])
        rows, anchor = verify._scipy_jacobi_rows(n, a, b, x)
        want = eval_jacobi(np.arange(n)[:, None], a, b, x)
        assert rows.shape == (n, x.size) and n > 800
        np.testing.assert_allclose(rows, want, rtol=1e-14, atol=0.0)
        assert np.max(anchor) <= 1e-14

    def test_a_wrong_top_degree_fails_the_shift_identity_through_the_anchor(
            self, monkeypatch):
        # the top degree's series term is far below rounding at every time of
        # the check, so only the anchor against eval_jacobi sees it
        original = verify.binom

        def skewed(n, k):
            out = original(n, k)
            out[-1] *= 1.0 + 1e-6
            return out

        monkeypatch.setattr(verify, "binom", skewed)
        rep = check_shift_identity(P)
        assert not rep.passed
        assert rep.constant == pytest.approx(1e-6, rel=1e-6)

    def test_shift_identity_calls_eval_jacobi_once(self, monkeypatch):
        # the anchor, at the top degree on all points together; one call per
        # degree would be O(n^2)
        degrees = []

        def counted(n, *args):
            degrees.append(np.shape(n))
            return eval_jacobi(n, *args)

        monkeypatch.setattr(verify, "eval_jacobi", counted)
        assert check_shift_identity(P).passed
        assert degrees == [()]

    def test_each_family_is_read_once(self, monkeypatch):
        # reads inside apply_operator go through operators.basis_matrix and
        # are not counted
        reads = []
        for name in ("basis_matrix", "eval_basis"):
            def counted(*args, _original=getattr(basis, name), **kwargs):
                reads.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(verify, name, counted, raising=False)
        check_conjugation(P)
        assert len(reads) <= 3
        reads.clear()
        check_spectral_identities(P)
        assert len(reads) == 1

    def test_a_nan_basis_row_fails_the_claims_that_read_it(self, monkeypatch):
        # degree 4 of the polynomial table is row 8 of both symmetrized
        # families, which every check below reads
        original = basis.trig_poly_table

        def poisoned(params, nmax, theta, dmax=0):
            table = original(params, nmax, theta, dmax)
            if nmax >= 4:
                table[:, 4, 0] = np.nan
            return table

        monkeypatch.setattr(basis, "trig_poly_table", poisoned)
        reports = ([check_eigen_residuals(P), check_conjugation(P)]
                   + check_spectral_identities(P)[:2])
        assert [r.claim for r in reports] == [
            "eigen-residual", "conjugation-ladder", "riesz-order-two-multiplier",
            "square-function-time-norm"]
        assert [(r.passed, math.isnan(r.constant)) for r in reports] == [(False, True)] * 4

    def test_a_nan_kernel_sample_fails_the_kernel_identities(self, monkeypatch):
        matrix, chains = kernels.KernelHandle.eval_matrix, verify.eval_kernels

        def poisoned_matrix(*args, **kwargs):
            out = matrix(*args, **kwargs)
            out[0, 0] = np.nan
            return out

        def poisoned_chains(*args, **kwargs):
            samples = chains(*args, **kwargs)
            samples[-1][0, 0] = np.nan
            return samples

        monkeypatch.setattr(kernels.KernelHandle, "eval_matrix", poisoned_matrix)
        monkeypatch.setattr(verify, "eval_kernels", poisoned_chains)
        reports = [check_semigroup_law(P), check_chain_routes(P)]
        assert [(r.passed, math.isnan(r.constant)) for r in reports] == [(False, True)] * 2


class TestDomination:
    @pytest.mark.parametrize("ab", ALL_PAIRS)
    def test_finite_and_stable(self, ab):
        reports = check_domination(JacobiParams(*ab), TEST_SWEEP)
        assert all(r.passed for r in reports)

    def test_unit_constant_is_observed_not_gated(self):
        # the odd part genuinely pokes above the even one for some
        # parameters; the check reports that without failing
        rep = check_domination(JacobiParams(-0.7, -0.6), TEST_SWEEP)[0]
        assert rep.passed
        assert not rep.details["within_unit_constant"]
        assert rep.constant > 1.0
        rep = check_domination(JacobiParams(0.0, 0.0), TEST_SWEEP)[0]
        assert rep.details["within_unit_constant"]


def count_kernel_evaluations(monkeypatch):
    """Patch eval_kernels, which every kernel evaluation on pairs goes
    through, to log (kernel, number of times) per kernel evaluated, the
    kernel by its fields other than the parameters."""
    calls = []
    original = kernels.eval_kernels

    def counted(jobs, *args, **kwargs):
        calls.extend(((h.component, h.N, h.M, h.route, h.shift, h.L), np.size(t))
                     for h, t in jobs)
        return original(jobs, *args, **kwargs)

    for module in (kernels, verify):
        monkeypatch.setattr(module, "eval_kernels", counted)
    return calls


RIESZ_AND_ATOM_CLAIMS = [
    "riesz-kernel-odd-N1/growth", "riesz-kernel-odd-N1/gradient",
    "riesz-kernel-odd-N2/growth", "riesz-kernel-odd-N2/gradient",
    "multiplier-kernel-single-atom/growth",
    "multiplier-kernel-single-atom/gradient",
]
VECTOR_KERNELS = [f"vector-kernel-M{M}-N{N}-{route}"
                  for M, N in ((1, 0), (0, 1), (1, 1))
                  for route in ("ladder", "direct")]


class TestStandardEstimates:
    def test_quick_target_set(self):
        reports = check_standard_estimates(P, TEST_SWEEP, "quick")
        assert all(r.passed for r in reports)
        names = {r.claim for r in reports}
        assert "riesz-kernel-odd-N1/growth" in names
        assert "riesz-kernel-odd-N2/gradient" in names
        assert "multiplier-kernel-single-atom/growth" in names
        assert "vector-kernel-M1-N1-direct/gradient" in names

    def test_routes_estimate_identical_constants(self):
        reports = check_standard_estimates(P, TEST_SWEEP, "quick")
        by_claim = {r.claim: r.constant for r in reports}
        for M, N in ((1, 0), (0, 1), (1, 1)):
            for part in ("growth", "gradient"):
                a = by_claim[f"vector-kernel-M{M}-N{N}-ladder/{part}"]
                b = by_claim[f"vector-kernel-M{M}-N{N}-direct/{part}"]
                assert abs(a - b) <= 1e-6 * abs(a)

    def test_claim_order(self, monkeypatch):
        quick = [r.claim for r in check_standard_estimates(P, TEST_SWEEP, "quick")]
        assert quick == RIESZ_AND_ATOM_CLAIMS + [
            f"{v}/{part}" for v in VECTOR_KERNELS for part in ("growth", "gradient")]
        calls = count_kernel_evaluations(monkeypatch)
        full = [r.claim for r in check_standard_estimates(P, TEST_SWEEP, "full")]
        assert full == RIESZ_AND_ATOM_CLAIMS + [
            f"{v}/{part}" for v in VECTOR_KERNELS
            for part in ("growth", "smooth-first-quarter", "smooth-first-eighth",
                         "smooth-second-quarter", "gradient")]
        # the 13 unmoved evaluations of the quick profile, then three moved
        # point sets per vector kernel
        assert len(calls) == 13 + 3 * len(VECTOR_KERNELS)

    def test_each_kernel_family_is_evaluated_once(self, monkeypatch):
        calls = count_kernel_evaluations(monkeypatch)
        check_standard_estimates(P, TEST_SWEEP, "quick")
        assert len(calls) == len(set(calls)) == 13
        calls.clear()
        check_lemma_instances(P, TEST_SWEEP, "quick")
        assert len(calls) == len(set(calls)) == 4


SWEEP_SUITES = ("standard-estimates", "domination", "lemma-ratios")


def reads_a_kernel_sweep(claim):
    return (claim.startswith(("riesz-kernel-", "multiplier-kernel-", "vector-kernel-",
                              "lemma-"))
            or claim in ("odd-dominated-by-even", "even-kernel-positive"))


def test_a_nan_sweep_pair_fails_every_kernel_claim(monkeypatch, tmp_path):
    # one pair of the shared sweep call reads NaN in every kernel job; every
    # claim passes at (0, 0) without it
    original = verify.eval_kernels
    size = QUICK_SWEEP.pairs()[0].size

    def poisoned(jobs, theta, phi, *args, **kwargs):
        samples = original(jobs, theta, phi, *args, **kwargs)
        if np.size(theta) == size:
            for s in samples:
                s[5] = np.nan
        return samples

    monkeypatch.setattr(verify, "eval_kernels", poisoned)
    doc = run_suite("all", JacobiParams(0.0, 0.0), "quick")
    verdicts = {c["claim"]: c["passed"] for c in doc["checks"]}
    kernel = [claim for claim in verdicts if reads_a_kernel_sweep(claim)]
    assert len(kernel) == 27 and "even-kernel-positive" in kernel
    assert not any(verdicts[claim] for claim in kernel)
    assert all(ok for claim, ok in verdicts.items() if claim not in kernel)
    assert not doc["passed"]
    out = tmp_path / "report.json"
    assert cli.main(["verify", "all", "--profile", "quick", "--out", str(out)]) == 1
    checks = json.loads(out.read_text(), parse_constant=reject_constant)["checks"]
    assert sum(c["constant"] == "NaN" for c in checks) == len(kernel)


class TestSharedSweepStep:
    @pytest.mark.parametrize("profile", ["quick", "full"])
    @pytest.mark.parametrize("ab", [(0.0, 0.0), (1.5, -0.7)])
    def test_all_equals_each_suite_alone(self, ab, profile, monkeypatch):
        params = JacobiParams(*ab)
        _, theta, phi = TEST_SWEEP.pairs()
        on_pairs = []
        original = verify.eval_kernels

        def counted(jobs, th, ph, *args, **kwargs):
            if np.array_equal(th, theta) and np.array_equal(ph, phi):
                on_pairs.append(len(jobs))
            return original(jobs, th, ph, *args, **kwargs)

        monkeypatch.setattr(verify, "eval_kernels", counted)
        whole = run_suite("all", params, profile, spec=TEST_SWEEP)["checks"]
        # one kernel call on the sweep pairs serves all three suites
        assert len(on_pairs) == 1
        alone = [c for suite in SWEEP_SUITES
                 for c in run_suite(suite, params, profile, spec=TEST_SWEEP)["checks"]]
        claims = {c["claim"] for c in alone}
        assert ([report_json(c) for c in whole if c["claim"] in claims]
                == [report_json(c) for c in alone])

    def test_one_scale_per_source_and_lag(self, monkeypatch):
        # the merged call reads each RowTerm.scale from its plan, computed
        # once, however many streams read it
        scales, merged = [], []
        original_scale = basis.RowTerm.scale

        def scale(term, *args):
            scales.append((term.source, term.lag))
            return original_scale(term, *args)

        monkeypatch.setattr(basis.RowTerm, "scale", scale)
        _, theta, phi = TEST_SWEEP.pairs()
        original = verify.eval_kernels

        def counted(jobs, th, ph, *args, **kwargs):
            start = len(scales)
            out = original(jobs, th, ph, *args, **kwargs)
            if np.array_equal(th, theta) and np.array_equal(ph, phi):
                merged.append((len(jobs), scales[start:]))
            return out

        monkeypatch.setattr(verify, "eval_kernels", counted)
        run_suite("all", P, "quick", spec=TEST_SWEEP)
        (jobs, calls), = merged
        assert len(calls) == len(set(calls)) < jobs

    def test_timings_split_kernels_from_reductions(self):
        doc = run_suite("domination", P, "quick", spec=TEST_SWEEP, timings=True)
        assert set(doc["timings"]) == {"sweep-kernels", "domination"}


class TestLemmaInstances:
    def test_fixture_inventory(self):
        assert len(LEMMA_INSTANCES) == 39
        groups = {inst[0] for inst in LEMMA_INSTANCES}
        assert groups == {"riesz-even", "riesz-odd", "square10", "square01",
                          "square11", "mult-laplace", "mult-stieltjes"}

    def test_claim_ids_are_self_describing(self):
        assert (lemma_claim_id(LEMMA_INSTANCES[0])
                == "lemma-growth/riesz-even/L0-N0-M0-W2-g11-p1")
        stieltjes = [i for i in LEMMA_INSTANCES if i[0] == "mult-stieltjes"]
        assert lemma_claim_id(stieltjes[0]).endswith("-pinf")
        ids = {lemma_claim_id(i) for i in LEMMA_INSTANCES}
        assert len(ids) == len(LEMMA_INSTANCES)

    def test_quick_profile_covers_each_group(self):
        reports = check_lemma_instances(P, TEST_SWEEP, "quick")
        assert len(reports) == 7
        assert all(r.passed for r in reports)


class TestWeightClasses:
    @pytest.mark.parametrize("ab", [(1.5, -0.7), (-0.7, -0.6)])
    def test_shift_equivalence_and_window(self, ab):
        reports = check_weight_classes(JacobiParams(*ab), n_samples=10000)
        assert reports[0].passed and reports[0].constant == 0.0
        assert reports[1].passed


class TestLpSweep:
    def test_unweighted_norm_is_half(self):
        rep = empirical_lp_sweep(P, 2.0, weights=((0.0, 0.0),))[0]
        assert rep.passed
        assert abs(rep.constant - 0.5) < 0.01
        assert abs(rep.drift - 1.0) < 0.01
        assert rep.details["admissible"]

    def test_membership_flags(self):
        reps = empirical_lp_sweep(P, 2.0, weights=((6.0, 0.0), (0.0, 0.0)),
                                  orders=(16, 24), n_funcs=10)
        assert not reps[0].details["admissible"]
        assert reps[1].details["admissible"]

    def test_random_probe_path(self):
        rep = empirical_lp_sweep(P, 4.0, weights=((0.0, 0.0),),
                                 orders=(16, 24), n_funcs=25)[0]
        assert rep.passed and math.isfinite(rep.constant)

    def test_a_nan_probe_fails_the_estimate(self, monkeypatch):
        original = verify._restricted_matrix

        def poisoned(params, grid, *args):
            T = original(params, grid, *args)
            if grid.nodes.size == 24:
                T[0, 0] = np.nan
            return T

        monkeypatch.setattr(verify, "_restricted_matrix", poisoned)
        rep = empirical_lp_sweep(P, 4.0, weights=((0.0, 0.0),),
                                 orders=(16, 24), n_funcs=25)[0]
        assert not rep.passed and math.isnan(rep.constant)


class TestReports:
    def test_schema_and_determinism(self):
        a = run_suite("lp-sweep", P, "quick", seed=3)
        b = run_suite("lp-sweep", P, "quick", seed=3)
        assert a["schema_version"] == 1
        assert report_json(a) == report_json(b)
        assert "timings" not in a

    def test_non_finite_values_are_written_as_strings(self):
        doc = {"constant": math.nan, "drift": [math.inf, -math.inf, 0.5],
               "details": {"p": 2.0}}
        assert json.loads(report_json(doc), parse_constant=reject_constant) == {
            "constant": "NaN", "drift": ["Infinity", "-Infinity", 0.5],
            "details": {"p": 2.0}}
        finite = run_suite("lp-sweep", P, "quick")
        assert report_json(finite) == json.dumps(finite, sort_keys=True, indent=2) + "\n"

    def test_timings_opt_in(self):
        doc = run_suite("sharp-constants", P, "quick", ngrid=128,
                        spec=TEST_SWEEP, timings=True)
        assert "timings" in doc and doc["timings"]

    def test_report_shape(self):
        doc = run_suite("sharp-constants", P, "quick", ngrid=128,
                        spec=TEST_SWEEP)
        assert doc["alpha"] == 1.5 and doc["beta"] == -0.7
        for c in doc["checks"]:
            assert {"claim", "passed", "constant", "tolerance", "drift",
                    "levels", "details"} <= set(c)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_suite("nonsense", P)
        with pytest.raises(ValueError):
            run_suite("identities", P, profile="slow")
