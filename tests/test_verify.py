"""Harness tests: sharp constants, sweeps, reports, determinism."""

import dataclasses
import importlib
import json
import math
import pkgutil
import time
import typing

import numpy as np
import pytest
from scipy.special import eval_jacobi

import trigjacobi
import trigjacobi.cli as cli
from trigjacobi import basis, kernels, verify
from trigjacobi.basis import JacobiParams
from trigjacobi.kernels import (DEFAULT_TRUNCATION, eval_kernels, kernel_derivative,
                                partial_derivative_kernel, poisson_kernel)
from trigjacobi.measure import PowerWeight, ball_measure
from trigjacobi.quadrature import TGrid, gauss_jacobi_grid
from trigjacobi.verify import (
    FULL_SWEEP,
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

# three dyadic bands of five pairs each, nine in the refined sweep: enough
# to exercise every code path while keeping the series work small
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
        _, theta, phi = TEST_SWEEP.pairs()
        base = {(t, p) for _, th, ph in TEST_SWEEP.bands() for t, p in zip(th, ph)}
        r[[i for i, pair in enumerate(zip(theta, phi)) if pair not in base][-1]] = 1.0
        rep = ratio_sweep_report("probe", r, TEST_SWEEP)
        assert not rep.passed and rep.drift == math.inf


class TestNestedSweeps:
    """The refined sweep holds the base one, and pairs() is its union."""

    SPECS = [QUICK_SWEEP, FULL_SWEEP, TEST_SWEEP, SweepSpec(n_theta=1, levels=1)]

    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_every_base_pair_is_a_refined_pair(self, spec):
        refined = {(t, p) for _, th, ph in spec.refined().bands()
                   for t, p in zip(th.tolist(), ph.tolist())}
        for _, th, ph in spec.bands():
            assert set(zip(th.tolist(), ph.tolist())) <= refined

    def test_refined_points_are_geometric_midpoints(self):
        for _, theta, _ in FULL_SWEEP.refined().bands():
            half = theta[:2 * FULL_SWEEP.n_theta - 1]
            np.testing.assert_allclose(half[1::2] ** 2, half[:-1:2] * half[2::2],
                                       rtol=1e-14)

    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_pairs_are_the_refined_bands_each_once(self, spec):
        d, theta, phi = spec.pairs()
        assert len(set(zip(theta.tolist(), phi.tolist()))) == theta.size
        bands = list(spec.refined().bands())
        assert np.array_equal(np.concatenate([th for _, th, _ in bands]), theta)
        assert np.array_equal(np.concatenate([ph for _, _, ph in bands]), phi)
        assert np.array_equal(np.concatenate([np.full(th.size, dist)
                                              for dist, th, _ in bands]), d)

    def test_pair_counts(self):
        # a band holds 2 n - 1 base pairs and 4 n - 3 refined ones
        assert QUICK_SWEEP.pairs()[0].size == 5 * 21 == 105
        assert FULL_SWEEP.pairs()[0].size == 6 * 45 == 270
        assert [lv["pairs"] for lv in check_ball_comparability(P, QUICK_SWEEP)[0].levels] == [11] * 5


def parent_layout(spec):
    """(distance, theta, phi) of each pair as the sweeps were laid out before
    the refinement was nested: a band's two half bands of n_theta points in
    full, their shared midpoint twice; every band of the base sweep, then
    every band of a sweep with 2 n_theta."""
    out = []
    for n in (spec.n_theta, 2 * spec.n_theta):
        for d in spec.distances():
            left = np.geomspace(min(1.5e-2, 0.2 * (math.pi - d)), 0.5 * (math.pi - d), n)
            theta = np.clip(np.concatenate([left, (math.pi - d) - left]),
                            1e-12, math.pi - d - 1e-12)
            out.append((np.full(theta.size, d), theta, theta + d))
    return [np.concatenate(x) for x in zip(*out)]


@pytest.mark.parametrize("ab", ALL_PAIRS)
def test_base_levels_equal_the_parent_layout(ab):
    # the quick sweep claims that read no time grid: their base band maxima
    # are those of the layout before nesting, evaluated in one call as it
    # was, bit for bit
    params, spec = JacobiParams(*ab), QUICK_SWEEP
    d, theta, phi = parent_layout(spec)
    odd = poisson_kernel(params, "odd")
    ts, atom = 0.01 * 2.0 ** np.arange(11), np.array([1.0])
    even, o, size, slope = eval_kernels(
        [(poisson_kernel(params, "even"), ts), (odd, ts), (odd, atom),
         (kernel_derivative(odd, 1, 0), atom)], theta, phi, spec.truncation())
    mb = ball_measure(params, theta, d)
    up = ball_measure(JacobiParams(params.alpha + 1.0, params.beta + 1.0), theta, d) / (
        ((theta + phi) * (2.0 * math.pi - theta - phi)) ** 2.0 * mb)
    ratios = {"odd-dominated-by-even": np.max(np.abs(o) / even, axis=-1),
              "multiplier-kernel-single-atom/growth": np.abs(size[:, 0]) * mb,
              "multiplier-kernel-single-atom/gradient": np.abs(slope[:, 0]) * mb * d,
              "ball-comparability-upper/xi1": up,
              "ball-comparability-lower/xi1": 1.0 / up}
    checks = {c["claim"]: c for c in run_suite("all", params, "quick")["checks"]}
    band = 2 * spec.n_theta
    for claim, r in ratios.items():
        want = [(dist, float(np.max(r[i * band:(i + 1) * band])))
                for i, dist in enumerate(spec.distances())]
        assert [(lv["distance"], lv["max_ratio"]) for lv in checks[claim]["levels"]] == want


class TestBallComparability:
    def test_two_sided_and_stable(self):
        reports = check_ball_comparability(P, TEST_SWEEP, "quick")
        assert len(reports) == 2
        for r in reports:
            assert r.passed
            assert math.isfinite(r.constant)
            assert max(r.drift, 1.0 / r.drift) < 2.0

    def test_the_profile_picks_the_exponents(self):
        claims = [r.claim for r in check_ball_comparability(P, TEST_SWEEP, "full")]
        assert claims == [f"ball-comparability-{side}/xi{tag}"
                          for tag in ("0p5", "1", "2") for side in ("upper", "lower")]


class TestSweepTimeGrid:
    @pytest.mark.parametrize("spec", [QUICK_SWEEP, FULL_SWEEP])
    def test_profiles_read_sixteen_per_decade(self, spec):
        got, want = spec.tgrid(), TGrid(5e-3, 40.0, 16)
        assert got.points_per_decade == 16 and got.nodes.size == 63
        assert np.array_equal(got.nodes, want.nodes)
        assert np.array_equal(got.log_weights, want.log_weights)

    @pytest.mark.parametrize("t_min,density", [(3.0, 64), (4.0, 64), (5.0, 64),
                                               (10.0, 256)])
    def test_short_ranges_refine_themselves(self, t_min, density):
        assert SweepSpec(t_min=t_min).tgrid().points_per_decade == density

    def test_truncation_is_the_default(self):
        for t_min in (1e-3, 5e-3, 10.0):
            assert SweepSpec(t_min=t_min).truncation() == DEFAULT_TRUNCATION


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
        # degree 4 of the polynomial tables is row 8 of both symmetrized
        # families, which every check below reads
        original = basis._theta_table

        def poisoned(params, theta, tables):
            out = original(params, theta, tables)
            for (odd, _, rows), table in zip(tables, out):
                if not odd and rows > 4:
                    table[4, 0] = np.nan
            return out

        monkeypatch.setattr(basis, "_theta_table", poisoned)
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

    def test_even_positivity_reads_the_most_negative_sample(self, monkeypatch):
        # no negative even sample reads 0.0, its sign bit clear (the report
        # reads "-0.0" otherwise); one even sample at -1e-12 fails the claim
        # with that magnitude
        params = JacobiParams(0.0, 0.0)

        def positivity():
            reports = check_domination(params, TEST_SWEEP)
            [pos] = [r for r in reports if r.claim == "even-kernel-positive"]
            return pos

        pos = positivity()
        assert pos.passed and pos.constant == 0.0
        assert math.copysign(1.0, pos.constant) == 1.0
        even, original = poisson_kernel(params, "even"), verify.eval_kernels

        def negative(jobs, *args, **kwargs):
            samples = original(jobs, *args, **kwargs)
            for (h, _), s in zip(jobs, samples):
                if h == even:
                    s[0, 0] = -1e-12
            return samples

        monkeypatch.setattr(verify, "eval_kernels", negative)
        pos = positivity()
        assert not pos.passed and pos.constant == 1e-12


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

    @pytest.mark.parametrize("suite,profile,calls", [("domination", "quick", 1),
                                                     ("standard-estimates", "full", 4)])
    def test_timings_split_kernels_from_reductions(self, suite, profile, calls,
                                                   monkeypatch):
        # a clock that only the kernel calls advance: the calls on the pairs
        # and on the three moved point sets of the full profile all count
        # under sweep-kernels, and the suite's entry times its reductions
        now = [0.0]
        original = verify.eval_kernels

        def ticking(*args, **kwargs):
            now[0] += 1.0
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, "eval_kernels", ticking)
        monkeypatch.setattr(time, "perf_counter", lambda: now[0])
        doc = run_suite(suite, P, profile, spec=TEST_SWEEP, timings=True)
        assert doc["timings"] == {"sweep-kernels": calls, suite: 0.0}

    @pytest.mark.parametrize("ab", [(0.0, 0.0), (1.5, -0.7)])
    def test_reports_do_not_depend_on_row_order(self, ab):
        # the job dedup and the reductions read no row's neighbours: the full
        # profile's table for "all", run backwards, reports every claim as
        # it does forwards
        params = JacobiParams(*ab)
        rows = verify._sweep_claims("all", params, TEST_SWEEP, "full")

        def by_claim(reports):
            return {r.claim: report_json(r.to_dict()) for r in reports}

        forward = verify._sweep(rows, params, TEST_SWEEP)
        backward = verify._sweep(rows[::-1], params, TEST_SWEEP)
        assert len(forward) == len(backward) == len(by_claim(forward)) == 36 + 2 + 39
        assert by_claim(backward) == by_claim(forward)


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
        # the first instance of each group, in order (the groups are contiguous)
        first = [inst for i, inst in enumerate(LEMMA_INSTANCES)
                 if i == 0 or LEMMA_INSTANCES[i - 1][0] != inst[0]]
        reports = check_lemma_instances(P, TEST_SWEEP, "quick")
        assert len(reports) == 7
        assert [r.claim for r in reports] == [lemma_claim_id(inst) for inst in first]
        assert all(r.passed for r in reports)


class TestWeightClasses:
    @pytest.mark.parametrize("ab", [(1.5, -0.7), (-0.7, -0.6)])
    def test_shift_equivalence_and_window(self, ab):
        reports = check_weight_classes(JacobiParams(*ab))
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
        reps = empirical_lp_sweep(P, 2.0, weights=((6.0, 0.0), (0.0, 0.0)))
        assert not reps[0].details["admissible"]
        assert reps[1].details["admissible"]

    def test_random_probe_path(self):
        rep = empirical_lp_sweep(P, 4.0, weights=((0.0, 0.0),))[0]
        assert rep.passed and math.isfinite(rep.constant)

    @pytest.mark.parametrize("p", [1.5, 4.0])
    def test_random_probe_equals_a_loop_over_inputs(self, p):
        # the largest ratio |Tf|_p / |f|_p over 200 draws of one input each
        rep = empirical_lp_sweep(P, p, weights=((1.0, 1.0),), seed=7)[0]
        want = []
        for order in (32, 64):
            grid = gauss_jacobi_grid(P, order, "mu_plus")
            T = verify._restricted_matrix(P, grid, 1, 16, "even")
            wv = PowerWeight(1.0, 1.0)(grid.nodes) * grid.weights

            def norm(v):
                return (np.abs(v) ** p @ wv) ** (1.0 / p)

            rng = np.random.default_rng(7)
            fs = [rng.standard_normal(order) for _ in range(200)]
            want.append(max(norm(T @ f) / norm(f) for f in fs))
        np.testing.assert_allclose(rep.details["estimates"], want, rtol=1e-14, atol=0.0)

    def test_a_nan_probe_fails_the_estimate(self, monkeypatch):
        original = verify._restricted_matrix

        def poisoned(params, grid, *args):
            T = original(params, grid, *args)
            if grid.nodes.size == 64:
                T[0, 0] = np.nan
            return T

        monkeypatch.setattr(verify, "_restricted_matrix", poisoned)
        rep = empirical_lp_sweep(P, 4.0, weights=((0.0, 0.0),))[0]
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

    @pytest.mark.parametrize("check", [check_standard_estimates, check_lemma_instances,
                                       check_ball_comparability])
    def test_sweep_checks_reject_an_unknown_profile(self, check):
        # "ful" is not read as the quick profile
        with pytest.raises(ValueError, match="profile must be 'quick' or 'full'"):
            check(P, TEST_SWEEP, "ful")
        with pytest.raises(ValueError, match="profile must be 'quick' or 'full'"):
            run_suite("all", P, profile="ful")


@pytest.mark.parametrize("module", [m.name for m in pkgutil.iter_modules(trigjacobi.__path__)])
def test_every_dataclass_annotation_resolves(module):
    # a name used in an annotation but never imported only fails here
    mod = importlib.import_module(f"trigjacobi.{module}")
    classes = [c for c in vars(mod).values() if isinstance(c, type)
               and dataclasses.is_dataclass(c) and c.__module__ == mod.__name__]
    for cls in classes:
        assert typing.get_type_hints(cls), cls
