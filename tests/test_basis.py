"""Basis values, norm constants, ladder identities.

Frozen reference numbers come from tests/oracles.py (mpmath, 40 digits):
high-precision quadrature for norm constants and mpmath.diff for the
first-order ladder, so none of them share code with the package recurrences.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from trigjacobi import basis
from trigjacobi.basis import (
    SYM_FN,
    SYM_POLY,
    TRIG_POLY,
    JACOBI_FN,
    BasisElement,
    JacobiParams,
    basis_matrix,
    coeff_A,
    coeff_A_prime,
    coeff_b,
    eigenvalue,
    eval_basis,
    half_index,
    jacobi_table,
    ladder_images,
    log_norm_constant,
    odd_factor_table,
    psi,
    theta_row_terms,
    trig_poly_table,
)

from oracles import mp_log_norm_constant

PARAM_PAIRS = [(0.0, 0.0), (-0.5, -0.5), (1.5, -0.7), (-0.7, -0.6), (2.5, 3.5)]

# (alpha, beta, n) -> c_n, frozen from tests/oracles.py
NORM_CONSTANTS = {
    (-0.7, -0.6, 0): 0.4422834632047640000763,
    (-0.7, -0.6, 1): 1.664694479230046930842,
    (-0.7, -0.6, 2): 2.153968086492925582622,
    (-0.7, -0.6, 5): 3.252224867021537613644,
    (-0.7, -0.6, 12): 4.95529880974306334857,
    (-0.5, -0.5, 0): 0.5641895835477562869481,
    (-0.5, -0.5, 1): 1.59576912160573071176,
    (-0.5, -0.5, 2): 2.127692162140974282346,
    (-0.5, -0.5, 5): 3.242197580405294144528,
    (-0.5, -0.5, 12): 4.950262344204552361075,
    (0.0, 0.0, 0): 1.0,
    (0.0, 0.0, 1): 1.732050807568877293527,
    (0.0, 0.0, 2): 2.236067977499789696409,
    (0.0, 0.0, 5): 3.316624790355399849115,
    (0.0, 0.0, 12): 5.0,
    (1.5, -0.7, 0): 0.6492814191283430325379,
    (1.5, -0.7, 1): 1.461484255887918433703,
    (1.5, -0.7, 2): 2.003109334847899134767,
    (1.5, -0.7, 5): 3.141480042230101210151,
    (1.5, -0.7, 12): 4.87662835331819587828,
    (2.5, 3.5, 0): 11.41839434337773513305,
    (2.5, 3.5, 1): 8.631494801212613637056,
    (2.5, 3.5, 2): 7.672439823300101010716,
    (2.5, 3.5, 5): 6.974119807748068500562,
    (2.5, 3.5, 12): 7.396367127965065156909,
}

# (alpha, beta, n, theta) -> c_n P_n(cos theta)
TRIG_POLY_VALUES = {
    (-0.7, -0.6, 1, 0.3): 0.4733854587775419618942,
    (-0.7, -0.6, 1, 1.1): 0.1810499117365599359247,
    (-0.7, -0.6, 1, 2.7): -0.6099860902360220016209,
    (-0.7, -0.6, 3, 0.3): 0.1670342404968375178864,
    (-0.7, -0.6, 3, 1.1): -0.6562134355570588474627,
    (-0.7, -0.6, 3, 2.7): -0.08518984362373643404468,
    (-0.7, -0.6, 7, 0.3): -0.4146785113164908795533,
    (-0.7, -0.6, 7, 1.1): -0.004757620013736061381327,
    (-0.7, -0.6, 7, 2.7): 0.6831369732590011781295,
    (-0.5, -0.5, 1, 0.3): 0.7622482350449355140425,
    (-0.5, -0.5, 1, 1.1): 0.361917342125529998242,
    (-0.5, -0.5, 1, 2.7): -0.7213452039673885485928,
    (-0.5, -0.5, 3, 0.3): 0.4959729965243221791641,
    (-0.5, -0.5, 3, 1.1): -0.7878948625154491949113,
    (-0.5, -0.5, 3, 2.7): -0.194320120139587492538,
    (-0.5, -0.5, 7, 0.3): -0.4028089124416946862834,
    (-0.5, -0.5, 7, 1.1): 0.1223746365507208009768,
    (-0.5, -0.5, 7, 2.7): 0.7968696255056197330052,
    (0.0, 0.0, 1, 0.3): 1.654691337490021867027,
    (0.0, 0.0, 1, 1.1): 0.7856515284252818388415,
    (0.0, 0.0, 1, 2.7): -1.565898883681175482436,
    (0.0, 0.0, 3, 0.3): 1.975734406056298821473,
    (0.0, 0.0, 3, 1.1): -1.182852735070511722667,
    (0.0, 0.0, 3, 2.7): -1.299704560669846148453,
    (0.0, 0.0, 7, 0.3): 0.3193300651068362239319,
    (0.0, 0.0, 7, 1.1): 0.4623591324396431307894,
    (0.0, 0.0, 7, 2.7): 1.367792864002926783602,
    (1.5, -0.7, 1, 0.3): 3.562325614581948187398,
    (1.5, -0.7, 1, 1.1): 2.535725707470138469196,
    (1.5, -0.7, 1, 2.7): -0.2421694009660113659368,
    (1.5, -0.7, 3, 0.3): 14.01622944358846114985,
    (1.5, -0.7, 3, 1.1): 0.652087733317593582645,
    (1.5, -0.7, 3, 2.7): 0.3035621684033743105625,
    (1.5, -0.7, 7, 0.3): 36.03176180833741637039,
    (1.5, -0.7, 7, 1.1): 2.292259296299747518826,
    (1.5, -0.7, 7, 2.7): 0.4843133056655041142915,
    (2.5, 3.5, 1, 0.3): 28.6681803565792090218,
    (2.5, 3.5, 1, 1.1): 11.34510285513399978988,
    (2.5, 3.5, 1, 2.7): -35.52972337557196689207,
    (2.5, 3.5, 3, 0.3): 85.69522942446013053427,
    (2.5, 3.5, 3, 1.1): -9.270958558606635067588,
    (2.5, 3.5, 3, 2.7): -137.9919689993643511222,
    (2.5, 3.5, 7, 0.3): 236.5414419113348272776,
    (2.5, 3.5, 7, 1.1): 8.845337842836397978439,
    (2.5, 3.5, 7, 2.7): -415.7087034795385001846,
}

# (alpha, beta, n, theta) -> d/dtheta [c_n P_n(cos theta)], by mpmath.diff
DELTA_VALUES = {
    (-0.7, -0.6, 1, 0.3): -0.1721827997855191018735,
    (-0.7, -0.6, 1, 1.1): -0.5192557902502096596191,
    (-0.7, -0.6, 1, 2.7): -0.2490099245057393964874,
    (-0.7, -0.6, 2, 0.3): -0.6707543002509060450064,
    (-0.7, -0.6, 2, 1.1): -0.917587171500537175305,
    (-0.7, -0.6, 2, 2.7): 0.9941365495428097379548,
    (-0.7, -0.6, 5, 0.3): -2.576322093662299110771,
    (-0.7, -0.6, 5, 1.1): 2.004838265938217365794,
    (-0.7, -0.6, 5, 2.7): -2.494720526974330812624,
    (-0.5, -0.5, 1, 0.3): -0.2357910103003549317844,
    (-0.5, -0.5, 1, 1.1): -0.7110805930668994234844,
    (-0.5, -0.5, 1, 2.7): -0.3409998080363505940879,
    (-0.5, -0.5, 2, 0.3): -0.9010390237908827450239,
    (-0.5, -0.5, 2, 1.1): -1.290173596144579573128,
    (-0.5, -0.5, 2, 2.7): 1.233153707515320574588,
    (-0.5, -0.5, 5, 0.3): -3.979429246448180156281,
    (-0.5, -0.5, 5, 1.1): 2.814698663982213898541,
    (-0.5, -0.5, 5, 2.7): -3.206635920796615251563,
    (0.0, 0.0, 1, 0.3): -0.5118560126006947221104,
    (0.0, 0.0, 1, 1.1): -1.543616427705736281105,
    (0.0, 0.0, 1, 2.7): -0.7402436666976951964241,
    (0.0, 0.0, 2, 0.3): -1.893868430242373285066,
    (0.0, 0.0, 2, 1.1): -2.711779377757086402898,
    (0.0, 0.0, 2, 2.7): 2.591930887159467096327,
    (0.0, 0.0, 5, 0.3): -10.5024513323718503364,
    (0.0, 0.0, 5, 1.1): 5.495032656204274981771,
    (0.0, 0.0, 5, 2.7): -9.531459375533853303258,
    (1.5, -0.7, 1, 0.3): -0.6046573810652084529416,
    (1.5, -0.7, 1, 1.1): -1.823479735645712264328,
    (1.5, -0.7, 1, 2.7): -0.8744525527430093120457,
    (1.5, -0.7, 2, 0.3): -3.81596749403795535893,
    (1.5, -0.7, 2, 1.1): -7.423513546443516354106,
    (1.5, -0.7, 2, 2.7): 1.740059178019007129641,
    (1.5, -0.7, 5, 0.3): -60.25188594984576380069,
    (1.5, -0.7, 5, 1.1): 10.09425031197138603022,
    (1.5, -0.7, 5, 2.7): -1.101997617850378389625,
    (2.5, 3.5, 1, 0.3): -10.20312450980251894472,
    (2.5, 3.5, 1, 1.1): -30.76980678069078806234,
    (2.5, 3.5, 1, 2.7): -14.75570885752469014072,
    (2.5, 3.5, 2, 0.3): -43.6355234816295324756,
    (2.5, 3.5, 2, 1.1): -54.40042167333347175616,
    (2.5, 3.5, 2, 2.7): 74.07898099777468889942,
    (2.5, 3.5, 5, 0.3): -474.4661302574353225325,
    (2.5, 3.5, 5, 1.1): 86.8013022979299373716,
    (2.5, 3.5, 5, 2.7): -1040.005981254892891191,
}


def params_of(a, b):
    return JacobiParams(a, b)


class TestEigen:
    def test_values(self):
        p = params_of(1.5, -0.7)
        half = (1.5 - 0.7 + 1.0) / 2.0
        assert eigenvalue(p, 0) == pytest.approx(half**2)
        assert eigenvalue(p, 4) == pytest.approx((4 + half) ** 2)
        assert p.lam0 == pytest.approx(half**2)

    def test_degenerate_bottom(self):
        p = params_of(-0.5, -0.5)
        assert p.lam0 == 0.0
        assert eigenvalue(p, 3) == 9.0

    def test_half_index(self):
        assert [half_index(n) for n in range(7)] == [0, 1, 1, 2, 2, 3, 3]

    @pytest.mark.parametrize("ab", PARAM_PAIRS)
    def test_scalar_and_array_paths_agree_bitwise(self, ab):
        # BasisElement.lam takes the scalar path, the kernels' speeds the array one
        p = params_of(*ab)
        ns = np.arange(5000)
        assert np.array_equal([eigenvalue(p, int(n)) for n in ns], eigenvalue(p, ns))


class TestNormConstant:
    @pytest.mark.parametrize("key", sorted(NORM_CONSTANTS))
    def test_frozen(self, key):
        a, b, n = key
        assert_allclose(np.exp(log_norm_constant(params_of(a, b), n)),
                        NORM_CONSTANTS[key], rtol=1e-13)

    @pytest.mark.parametrize("ab", PARAM_PAIRS)
    def test_log_against_mpmath_to_high_degree(self, ab):
        # the running sum of exact step ratios, against 40-digit log-Gamma
        # values; measured at most 1.9e-13, where differences of float64
        # log-Gamma values read up to 1.8e-10
        n = np.unique(np.concatenate([np.arange(20), np.rint(np.geomspace(20, 65536, 60)).astype(int)]))
        want = [float(mp_log_norm_constant(int(k), *ab)) for k in n]
        assert np.max(np.abs(log_norm_constant(params_of(*ab), n) - want)) <= 5e-13

    def test_degenerate_zero_index(self):
        # alpha + beta = -1, where the step ratio to n = 1 divides 0 by 0
        c = np.exp(log_norm_constant(params_of(-0.5, -0.5), 0))
        assert_allclose(c, 1.0 / math.sqrt(math.pi), rtol=1e-14)

    def test_vectorized(self):
        p = params_of(0.0, 0.0)
        got = np.exp(log_norm_constant(p, np.arange(4)))
        assert_allclose(got, np.sqrt(2 * np.arange(4) + 1.0), rtol=1e-14)


class TestTrigPoly:
    @pytest.mark.parametrize("key", sorted(TRIG_POLY_VALUES))
    def test_frozen(self, key):
        a, b, n, t = key
        elem = BasisElement(params_of(a, b), n, TRIG_POLY)
        assert_allclose(eval_basis(elem, t)[0], TRIG_POLY_VALUES[key], rtol=1e-12)

    def test_legendre_special_case(self):
        # alpha = beta = 0 reduces to Legendre
        x = np.linspace(-1, 1, 9)
        assert_allclose(jacobi_table(params_of(0.0, 0.0), 2, x)[2],
                        0.5 * (3 * x**2 - 1), atol=1e-14)

    def test_table_matches_single(self):
        p = params_of(1.5, -0.7)
        x = np.linspace(-0.99, 0.99, 7)
        table = jacobi_table(p, 6, x)
        for n in (0, 3, 6):
            assert_allclose(table[n], jacobi_table(p, n, x)[n], rtol=1e-13)


def run_rows(p, x, degree, gamma, windows):
    """Rows degree, degree+1, ... of Q_n = P_n / gamma_n from one run of the
    recurrence at the points x, filled window by window with the sizes given,
    each window resuming from the rows the last one carried."""
    run = basis._Run(p, degree)
    carry = run.begin(x, gamma)
    out = [np.empty((m, x.size)) for m in windows]
    for window in out:
        basis._fill((run,), (0, x.size), window, carry)
    return np.concatenate(out)


class TestRecurrence:
    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    def test_windows_resume_where_they_stopped(self, a, b):
        from scipy.special import eval_jacobi

        p = params_of(a, b)
        x = np.cos(np.array([0.02, 0.8, 1.9, 3.1]))
        gamma = basis._gamma(a, b, 60)
        rows = run_rows(p, x, -2, gamma, (1, 1, 1, 2, 5, 1, 3, 40, 1))
        assert np.all(rows[:2] == 0.0)
        rows[2:] *= gamma[:rows.shape[0] - 2, None]  # P_n = gamma_n Q_n
        assert_allclose(rows[2:], jacobi_table(p, rows.shape[0] - 3, x),
                        rtol=1e-13, atol=1e-13)
        want = eval_jacobi(np.arange(rows.shape[0] - 2)[:, None], a, b, x[None, :])
        assert_allclose(rows[2:], want, rtol=1e-11, atol=1e-11)

    @staticmethod
    def two_call_rows(p, x, degree, m):
        """Rows degree..degree+m-1 of Q_n = P_n / gamma_n one at a time, in
        Python floats for the coefficients: gamma_n = C_n gamma_{n-2} from
        gamma_0 = gamma_1 = 1, A'_n = A_n gamma_{n-1}/gamma_n, B'_n likewise,
        then x * A'_n, + B'_n, * Q_{n-1}, - Q_{n-2}; the elementwise steps
        fill must keep."""
        a, b = p.alpha, p.beta
        rows, p2, p1, gamma = [], np.zeros_like(x), np.zeros_like(x), [1.0, 1.0]
        for n in range(min(degree, 0), degree + m):
            if n < 2:
                row = (np.zeros_like(x) if n < 0 else np.ones_like(x) if n == 0
                       else (x - 1.0) * ((a + b + 2.0) / 2.0) + (a + 1.0))
            else:
                s = 2.0 * n + (a + b)
                d = n * (n + (a + b))
                gamma.append((n + (a - 1.0)) * (n + (b - 1.0)) * s
                             / ((s - 2.0) * n * (n + (a + b))) * gamma[n - 2])
                h = (s - 1.0) / (d + d) * (gamma[n - 1] / gamma[n])
                row = (x * (h * s) + h / (s - 2.0) * (a * a - b * b)) * p1 - p2
            p2, p1 = p1, row
            rows.append(row)
        return np.array(rows[len(rows) - m:])

    # (-0.5, -0.5) has alpha + beta = -1
    @pytest.mark.parametrize("ab", PARAM_PAIRS)
    @pytest.mark.parametrize("npts", [1, 7, 360])
    def test_windows_equal_the_two_call_rows_bitwise(self, ab, npts):
        p = params_of(*ab)
        x = np.cos(np.linspace(0.01, 3.13, npts))
        for degree in range(-2, 9):
            want = self.two_call_rows(p, x, degree, 512)
            for m in list(range(1, 41)) + [256]:
                # two windows: the second resumes from the carried rows
                got = run_rows(p, x, degree, basis._gamma(*ab, degree + 2 * m), (m, m))
                assert np.array_equal(got, want[:2 * m]), (degree, m)

    def test_starts_at_a_positive_degree(self):
        p = params_of(1.5, -0.7)
        x = np.linspace(-0.9, 0.9, 5)
        for degree in (1, 2, 3, 8):
            gamma = basis._gamma(1.5, -0.7, degree + 2)
            rows = run_rows(p, x, degree, gamma, (2,)) * gamma[degree:degree + 2, None]
            assert_allclose(rows, jacobi_table(p, degree + 1, x)[degree:], rtol=1e-14)

    @staticmethod
    def mpmath_rows(a, b, x, degrees):
        """P_n^{(a,b)}(x) at the given degrees, by the three-term recurrence in
        40-digit arithmetic from the doubles a, b and x; {n: [P_n(x_j)]}."""
        import mpmath as mp

        with mp.workdps(40):
            a, b, xs = mp.mpf(a), mp.mpf(b), [mp.mpf(v) for v in x]
            p2 = [mp.mpf(1)] * len(xs)
            p1 = [(a + 1) + (a + b + 2) * (v - 1) / 2 for v in xs]
            out = {}
            for n in range(2, max(degrees) + 1):
                s = 2 * n + a + b
                den = 2 * n * (n + a + b) * (s - 2)
                A = (s - 1) * s * (s - 2) / den
                B = (s - 1) * (a * a - b * b) / den
                C = 2 * (n + a - 1) * (n + b - 1) * s / den
                p2, p1 = p1, [(A * v + B) * q1 - C * q2 for v, q1, q2 in zip(xs, p1, p2)]
                if n in degrees:
                    out[n] = [float(v) for v in p1]
        return out

    # far out in degree the rows must stay within 5e-11 of the local amplitude
    # sqrt(P_n^2 + P_{n+1}^2), the scale of their rounding near a zero of P_n
    @pytest.mark.parametrize("ab", PARAM_PAIRS)
    def test_high_degrees_track_a_40_digit_recurrence(self, ab):
        x = np.cos([0.015, 0.7, 2.9])
        want = self.mpmath_rows(*ab, x, {1000, 1001, 5000, 5001})
        got = jacobi_table(params_of(*ab), 5001, x)
        for n in (1000, 5000):
            amplitude = np.hypot(want[n], want[n + 1])
            assert np.all(np.abs(got[n] - want[n]) <= 5e-11 * amplitude), n

    # every series a sweep sums stops below its truncation cap; its rows are
    # read at the parameters shifted by 0 to 3
    @pytest.mark.parametrize("ab", PARAM_PAIRS)
    def test_gamma_is_finite_and_positive_as_far_as_a_sweep_reads(self, ab):
        from trigjacobi.verify import FULL_SWEEP, QUICK_SWEEP

        cap = max(spec.truncation().n_cap for spec in (QUICK_SWEEP, FULL_SWEEP))
        for shift in range(4):
            a, b = ab[0] + shift, ab[1] + shift
            gamma = basis._gamma(a, b, cap)
            assert gamma.size >= cap
            assert np.all(np.isfinite(gamma)) and np.all(gamma > 0.0)
            assert np.all(np.isfinite(basis._steps(a, b, gamma, 2, cap - 2)))

    # one pass of five runs at the five parameter pairs and widths 1 to 360,
    # read to lengths that end inside the first, second and third window of
    # 256 rows and at a window's edge; windows of 3 rows split the rows below
    # degree 2 of a run that starts at -2
    @pytest.mark.parametrize("chunk", [3, 256])
    @pytest.mark.parametrize("d0", range(-2, 9))
    def test_stacked_pass_equals_the_two_call_rows_bitwise(self, d0, chunk):
        widths, lengths = (1, 7, 180, 360, 7), (600, 130, 256, 300, 520)
        points = tuple(np.linspace(0.01, 3.13, w) + 1e-3 * j for j, w in enumerate(widths))
        plan, reads = basis.RowPlan(points, chunk), []
        for j, (ab, n) in enumerate(zip(PARAM_PAIRS, lengths)):
            degree = (d0 + 2 + 3 * j) % 11 - 2  # over d0, every start from -2 to 8
            (term,) = theta_row_terms(params_of(*ab), points[j], {0: 1.0})
            want = self.two_call_rows(params_of(*ab), np.cos(points[j]), degree, n)
            reads.append((plan.add([term], n, j, degree), want))
        for k0 in range(0, max(lengths), chunk):
            plan.advance(k0, min(k0 + chunk, max(lengths)))
            for factor, want in reads:
                m = min(k0 + chunk, len(want)) - k0
                if m > 0:
                    (got,) = plan.rows(factor, m)
                    assert np.array_equal(got, want[k0:k0 + m]), (k0, len(want))

    def test_quick_sweep_steps_each_degree_of_its_pass_once(self, monkeypatch):
        # each window of a pass is one step over every run of the pass still
        # going, each from the degree where the last window left it
        from trigjacobi import verify

        fill, advance, depth, steps, widths = basis._fill, basis.RowPlan.advance, [0], [], {}

        def counted_fill(recs, ends, out, *args):
            if not depth[0]:
                steps.append((sorted((r.params.alpha, r.params.beta, r.degree) for r in recs),
                              len(out)))
            depth[0] += 1
            try:
                fill(recs, ends, out, *args)
            finally:
                depth[0] -= 1

        def counted_advance(plan, k0, k1, runs=None):
            steps.clear()
            advance(plan, k0, k1, runs)
            live = sorted((r.params.alpha, r.params.beta, r.start + k0)
                          for r in plan._runs.values()
                          if (runs is None or r in runs) and r.length > k0)
            # a recurrence that starts above degree 0 steps there first
            assert steps[-1] == (live, k1 - k0)
            widths.setdefault(len(plan.points), []).append(len(live))

        monkeypatch.setattr(basis, "_fill", counted_fill)
        monkeypatch.setattr(basis.RowPlan, "advance", counted_advance)
        verify.run_suite("all", params_of(0.0, 0.0), "quick")
        # the sweep's kernel call, on theta and phi: its pass of (0, 0) on
        # theta, (1, 1) on theta and phi, (2, 2) on theta
        assert max(widths[2]) == 3
        # the basis tables, on theta: order 2 of jacobi_operator_rows steps
        # (1, 1) and (2, 2) for the polynomials and (1, 1) to (3, 3) for the
        # odd factors in one plan
        assert max(widths[1]) == 5

    def test_a_factor_added_after_gamma_is_read_raises(self):
        p, theta = params_of(1.5, -0.7), np.linspace(0.1, 3.0, 5)
        plan = basis.RowPlan((theta,), 8)
        plan.add(theta_row_terms(p, theta, {0: 1.0}), 8)
        plan.gamma(p)
        with pytest.raises(ValueError, match="after the plan's gamma was read"):
            plan.add(theta_row_terms(p, theta, {1: 1.0}), 8)


def element_row(p, kind, n, theta, order=0):
    """Row n of a family, element by element from the tables: the polynomial
    or odd-factor row, over sqrt 2 on the symmetrized kinds, times psi on the
    weighted ones."""
    if kind in (TRIG_POLY, JACOBI_FN):
        row = trig_poly_table(p, n, theta, order)[order, n]
    else:
        table = trig_poly_table if n % 2 == 0 else odd_factor_table
        row = (1.0 / math.sqrt(2.0)) * table(p, n // 2, theta, order)[order, n // 2]
    return psi(p, theta) * row if kind in (JACOBI_FN, SYM_FN) else row


def record_plans(monkeypatch):
    """Every RowPlan built from here on, as the list of its factors' (source,
    order): the polynomials' source is the parameters, the odd factors' the
    parameters shifted by 1, and a factor of order d has terms up to lag d."""
    plans = []

    class Recorded(basis.RowPlan):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append([])

        def add(self, terms, *args):
            plans[-1].append((terms[0].source, max(term.lag for term in terms)))
            return super().add(terms, *args)

    monkeypatch.setattr(basis, "RowPlan", Recorded)
    return plans


def nodes_for(kind):
    if kind in (TRIG_POLY, JACOBI_FN):
        return np.linspace(0.02, 3.1, 29)
    return np.linspace(-3.1, 3.1, 30)


class TestBasisMatrix:
    @pytest.mark.parametrize("nmax", [0, 1, 2, 64])
    @pytest.mark.parametrize("kind", [TRIG_POLY, JACOBI_FN, SYM_POLY, SYM_FN])
    @pytest.mark.parametrize("ab", [(1.5, -0.7), (-0.5, -0.5), (-0.7, -0.6)])
    def test_rows_are_the_elements_bitwise(self, ab, kind, nmax):
        p = params_of(*ab)
        theta = nodes_for(kind)
        table = basis_matrix(p, kind, np.arange(nmax + 1), theta)
        assert table.shape == (nmax + 1, theta.size)
        for n in range(nmax + 1):
            assert np.array_equal(table[n], element_row(p, kind, n, theta))
            assert np.array_equal(table[n], eval_basis(BasisElement(p, n, kind), theta))

    # unsorted with repeats, even indices only, odd indices only
    INDEX_SETS = [[5, 0, 3, 3, 8, 1, 0], [6, 2, 2, 0], [7, 1, 1, 3]]

    @pytest.mark.parametrize("n", INDEX_SETS, ids=["mixed", "even", "odd"])
    @pytest.mark.parametrize("kind,order", [(k, 0) for k in (TRIG_POLY, JACOBI_FN,
                                                              SYM_POLY, SYM_FN)]
                             + [(k, d) for k in (TRIG_POLY, SYM_POLY) for d in (1, 2)])
    @pytest.mark.parametrize("ab", [(1.5, -0.7), (-0.7, -0.6)])
    def test_index_arrays_and_orders_bitwise(self, ab, kind, order, n):
        p = params_of(*ab)
        theta = nodes_for(kind)
        table = basis_matrix(p, kind, np.array(n), theta, order)
        assert table.shape == (len(n), theta.size)
        for row, k in zip(table, n):
            assert np.array_equal(row, element_row(p, kind, k, theta, order))

    @pytest.mark.parametrize("n,parities", [([6, 2, 2, 0], [0]), ([7, 1], [1]),
                                            ([3, 0, 1], [0, 1])])
    @pytest.mark.parametrize("kind,order", [(SYM_POLY, 0), (SYM_POLY, 1), (SYM_POLY, 2),
                                            (SYM_FN, 0), (TRIG_POLY, 2), (JACOBI_FN, 0)])
    def test_one_plan_per_call_with_a_factor_per_parity_present(self, monkeypatch, kind,
                                                                order, n, parities):
        p, plans = params_of(1.5, -0.7), record_plans(monkeypatch)
        basis_matrix(p, kind, np.array(n), nodes_for(kind), order)
        if kind in (TRIG_POLY, JACOBI_FN):
            parities = [0]
        assert plans == [[(p.shifted(odd), order) for odd in parities]]

    @pytest.mark.parametrize("n", [[], np.zeros(0, dtype=int)], ids=["list", "int-array"])
    @pytest.mark.parametrize("kind", [TRIG_POLY, JACOBI_FN, SYM_POLY, SYM_FN])
    def test_empty_index_array_has_no_rows(self, kind, n):
        theta = nodes_for(kind)
        table = basis_matrix(params_of(1.5, -0.7), kind, n, theta)
        assert table.shape == (0, theta.size)

    def test_rejects_bad_input(self):
        p = params_of(0.0, 0.0)
        with pytest.raises(ValueError):
            basis_matrix(p, "chebyshev", [3], [0.5])
        with pytest.raises(ValueError):
            basis_matrix(p, SYM_POLY, [-1], [0.5])
        with pytest.raises(ValueError):
            basis_matrix(p, JACOBI_FN, [3], [-0.5])
        with pytest.raises(ValueError):
            basis_matrix(p, SYM_FN, [3], [0.5], order=1)
        # a scalar is not an index array: an nmax-style call fails loudly
        with pytest.raises(ValueError):
            basis_matrix(p, SYM_POLY, 3, [0.5])


class TestThetaTable:
    @pytest.mark.parametrize("odd", [False, True])
    @pytest.mark.parametrize("dmax", [0, 1, 2])
    @pytest.mark.parametrize("ab", PARAM_PAIRS)
    def test_sum_of_scaled_recurrence_rows_bitwise(self, ab, dmax, odd):
        # order d is the sum, in lag order, of pi * scale * the recurrence
        # rows of each of its terms (the scale folds in gamma)
        p, nmax = params_of(*ab), 40
        theta = np.linspace(0.05, 3.1, 23)
        got = (odd_factor_table if odd else trig_poly_table)(p, nmax, theta, dmax)
        assert got.shape == (dmax + 1, nmax + 1, theta.size)
        for d in range(dmax + 1):
            want = np.zeros((nmax + 1, theta.size))
            for term in theta_row_terms(p, theta, {d: 1.0}, odd):
                q = term.params
                gamma = basis._gamma(q.alpha, q.beta, nmax + 1)
                rows = run_rows(q, np.cos(theta), -term.lag, gamma, (nmax + 1,))
                want += rows * term.scale(nmax + 1, gamma)[1:, None] * term.pi
            assert np.array_equal(got[d], want), d


class TestDerivativeTables:
    @pytest.mark.parametrize("key", sorted(DELTA_VALUES))
    def test_first_theta_derivative_frozen(self, key):
        a, b, n, t = key
        T = trig_poly_table(params_of(a, b), n, np.array([t]), dmax=1)
        assert_allclose(T[1, n, 0], DELTA_VALUES[key], rtol=1e-11)

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    def test_second_derivative_vs_finite_difference(self, a, b):
        p, n = params_of(a, b), 6
        t = np.array([0.9])
        h = 1e-5
        T = trig_poly_table(p, n, t, dmax=2)
        stencil = trig_poly_table(p, n, np.array([0.9 - h, 0.9, 0.9 + h]), dmax=0)
        fd2 = (stencil[0, n, 0] - 2 * stencil[0, n, 1] + stencil[0, n, 2]) / h**2
        assert_allclose(T[2, n, 0], fd2, rtol=1e-5)

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    def test_odd_factor_vs_product_rule_fd(self, a, b):
        p, n = params_of(a, b), 4
        h = 1e-5
        grid = np.array([1.3 - h, 1.3, 1.3 + h])
        S = odd_factor_table(p, n, grid, dmax=2)
        fd1 = (S[0, n, 2] - S[0, n, 0]) / (2 * h)
        fd2 = (S[0, n, 0] - 2 * S[0, n, 1] + S[0, n, 2]) / h**2
        assert_allclose(S[1, n, 1], fd1, rtol=1e-8)
        assert_allclose(S[2, n, 1], fd2, rtol=1e-4)

    @pytest.mark.parametrize("table", [trig_poly_table, odd_factor_table])
    def test_orders_above_two_rejected(self, table):
        with pytest.raises(ValueError):
            table(params_of(0.0, 0.0), 4, np.array([0.9]), dmax=3)


class TestLadder:
    """delta P_n = -sqrt(lam_n - lam_0) s_{n-1}, checked against mpmath.diff."""

    @pytest.mark.parametrize("key", sorted(DELTA_VALUES))
    def test_ladder_matches_analytic_derivative(self, key):
        a, b, n, t = key
        p = params_of(a, b)
        root = math.sqrt(eigenvalue(p, n) - p.lam0)
        s = odd_factor_table(p, n - 1, np.array([t]), dmax=0)[0, n - 1, 0]
        assert_allclose(-root * s, DELTA_VALUES[key], rtol=1e-11)

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    def test_delta_star_closes_the_loop(self, a, b):
        # delta* delta P_n = (lam_n - lam_0) P_n, via the pointwise formula
        # delta* = -d/dtheta - A
        p, n = params_of(a, b), 5
        t = np.linspace(0.2, 2.9, 11)
        S = odd_factor_table(p, n - 1, t, dmax=1)
        lhs = -S[1, n - 1] - coeff_A(p, t) * S[0, n - 1]
        root = math.sqrt(eigenvalue(p, n) - p.lam0)
        P = trig_poly_table(p, n, t, dmax=0)[0, n]
        assert_allclose(-root * lhs, (eigenvalue(p, n) - p.lam0) * P, rtol=1e-10)


class TestSymmetrizedElements:
    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 8])
    def test_parity(self, a, b, n):
        elem = BasisElement(params_of(a, b), n, SYM_POLY)
        t = np.linspace(0.1, 3.0, 5)
        left = eval_basis(elem, -t)
        right = eval_basis(elem, t)
        sign = 1.0 if n % 2 == 0 else -1.0
        assert_allclose(left, sign * right, rtol=1e-13)

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    def test_even_elements_halve_the_polynomials(self, a, b):
        p = params_of(a, b)
        t = np.linspace(0.2, 3.0, 7)
        for k in (0, 2, 3):
            sym = eval_basis(BasisElement(p, 2 * k, SYM_POLY), t)
            pos = eval_basis(BasisElement(p, k, TRIG_POLY), t)
            assert_allclose(sym, pos / math.sqrt(2.0), rtol=1e-13)

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    @pytest.mark.parametrize("n", [0, 1, 4, 7])
    def test_fn_elements_are_psi_times_poly_elements(self, a, b, n):
        # both parities, both signs of theta
        p = params_of(a, b)
        t = np.concatenate([-np.linspace(0.1, 3.0, 6), np.linspace(0.1, 3.0, 6)])
        fn = eval_basis(BasisElement(p, n, SYM_FN), t)
        poly = eval_basis(BasisElement(p, n, SYM_POLY), t)
        assert_allclose(fn, psi(p, t) * poly, rtol=1e-13)

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    def test_odd_fn_element_signed_form(self, a, b):
        # the odd-index function element also equals
        # sign(theta) * psi^{a+1,b+1} * (shifted polynomial) / sqrt(2)
        p = params_of(a, b)
        n, k = 5, 2
        t = np.array([-2.4, -0.7, 0.4, 1.9])
        fn = eval_basis(BasisElement(p, n, SYM_FN), t)
        shifted = p.shifted(1)
        pos = eval_basis(BasisElement(shifted, k, TRIG_POLY), np.abs(t))
        expected = np.sign(t) * psi(shifted, t) * pos / math.sqrt(2.0)
        assert_allclose(fn, expected, rtol=1e-12)

    def test_jacobi_fn_is_weighted_poly(self):
        p = params_of(1.5, -0.7)
        t = np.linspace(0.1, 3.0, 7)
        fn = eval_basis(BasisElement(p, 3, JACOBI_FN), t)
        pos = eval_basis(BasisElement(p, 3, TRIG_POLY), t)
        assert_allclose(fn, psi(p, t) * pos, rtol=1e-13)


class TestLadderSteps:
    """Single first-order steps, as order-1 chains of ladder_images."""

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    def test_delta_on_even_elements(self, a, b):
        p = params_of(a, b)
        (coef,), params, (img,) = ladder_images(1, p, SYM_POLY, [6], True)
        t = np.linspace(0.2, 2.8, 9)
        d = basis_matrix(p, SYM_POLY, [6], t, 1)[0]
        assert img == 5 and params == p
        assert_allclose(coef * eval_basis(BasisElement(p, int(img), SYM_POLY), t), d,
                        rtol=1e-11)

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    def test_delta_star_on_odd_elements(self, a, b):
        p = params_of(a, b)
        elem = BasisElement(p, 5, SYM_POLY)
        (coef,), params, (img,) = ladder_images(1, p, SYM_POLY, [5], True)
        t = np.linspace(0.2, 2.8, 9)
        d = basis_matrix(p, SYM_POLY, [5], t, 1)[0]
        lhs = -d - coeff_A(p, t) * eval_basis(elem, t)
        assert img == 6 and params == p
        assert_allclose(coef * eval_basis(BasisElement(p, int(img), SYM_POLY), t), lhs,
                        rtol=2e-11)

    def test_constant_is_annihilated(self):
        (coef,), _, (img,) = ladder_images(1, params_of(0.0, 0.0), SYM_POLY, [0], True)
        assert coef == 0.0 and math.copysign(1.0, coef) == 1.0 and img == 0

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_dd_pointwise(self, a, b, n):
        # DD f = f' + A f_odd against the ladder image
        p = params_of(a, b)
        elem = BasisElement(p, n, SYM_POLY)
        (coef,), params, (img,) = ladder_images(1, p, SYM_POLY, [n])
        t = np.linspace(0.15, 2.9, 13)
        lhs = basis_matrix(p, SYM_POLY, [n], t, 1)[0]
        if elem.parity == "odd":
            lhs = lhs + coeff_A(p, t) * eval_basis(elem, t)
        assert_allclose(coef * eval_basis(BasisElement(params, int(img), SYM_POLY), t), lhs,
                        rtol=5e-11)

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_dd_bar_pointwise(self, a, b, n):
        # DD_bar f = f' - b * f(-.) against the ladder on function elements,
        # with the derivative of Theta_n taken by central differences
        p = params_of(a, b)
        elem = BasisElement(p, n, SYM_FN)
        (coef,), params, (img,) = ladder_images(1, p, SYM_FN, [n])
        t = np.linspace(0.15, 2.9, 13)
        h = 1e-6
        d = (eval_basis(elem, t + h) - eval_basis(elem, t - h)) / (2 * h)
        reflect = eval_basis(elem, -t)
        lhs = d - coeff_b(p, t) * reflect
        assert_allclose(coef * eval_basis(BasisElement(params, int(img), SYM_FN), t), lhs,
                        rtol=1e-7)

    @pytest.mark.parametrize("a,b", [(1.5, 0.5), (2.5, 3.5)])
    def test_d_fn_ladder(self, a, b):
        # D phi_n = psi * (d/dtheta)(P-part): conjugation makes the check exact
        p = params_of(a, b)
        (coef,), params, (img,) = ladder_images(1, p, JACOBI_FN, [4])
        assert params == p.shifted(1) and img == 3
        t = np.linspace(0.2, 2.8, 9)
        d_poly = trig_poly_table(p, 4, t, dmax=1)[1, 4]
        assert_allclose(coef * eval_basis(BasisElement(params, int(img), JACOBI_FN), t),
                        psi(p, t) * d_poly, rtol=1e-11)

    def test_d_star_fn_ladder_roundtrip(self):
        # D* D phi_n = (lam_n - lam_0) phi_n: the two steps visit n -> n-1 -> n
        p = params_of(1.5, 0.5)
        (coef,), params, (img,) = ladder_images(2, p, JACOBI_FN, [4], True)
        assert params == p and img == 4
        assert coef == pytest.approx(eigenvalue(p, 4) - p.lam0)

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    def test_element_dying_mid_chain(self, a, b):
        # D^N kills phi_n for N > n: factor +0 and index 0, and the steps past
        # its death read the root at index 0, never a negative index
        p = params_of(a, b)
        n = np.array([0, 1, 2, 5])
        coef, params, img = ladder_images(4, p, JACOBI_FN, n)
        assert not np.isnan(coef).any()
        assert np.array_equal(np.copysign(1.0, coef[:3]), np.ones(3))
        assert np.array_equal(coef[:3], np.zeros(3)) and coef[3] != 0.0
        assert np.array_equal(img, [0, 0, 0, 1]) and params == p.shifted(4)


class TestInterlacedChains:
    """The chain closed forms, through ladder_images on index arrays."""

    @pytest.mark.parametrize("N", range(5))
    def test_even_chain_closed_form(self, N):
        p = params_of(1.5, -0.7)
        n = np.array([6, 2, 4])
        coef, params, img = ladder_images(N, p, SYM_POLY, n, True)
        root = np.sqrt(eigenvalue(p, n // 2) - p.lam0)
        assert_allclose(coef, (-root) ** N, rtol=1e-13)
        assert params == p
        assert np.array_equal(img, n - (N % 2))

    @pytest.mark.parametrize("N", range(5))
    def test_odd_chain_closed_form(self, N):
        p = params_of(1.5, -0.7)
        n = np.array([5, 1, 3])
        coef, params, img = ladder_images(N, p, SYM_POLY, n, True)
        root = np.sqrt(eigenvalue(p, (n + 1) // 2) - p.lam0)
        assert_allclose(coef, (-root) ** N, rtol=1e-13)
        assert np.array_equal(img, n + (N % 2))

    @pytest.mark.parametrize("N", range(1, 6))
    def test_dd_power_sign_relation(self, N):
        # DD^N = (-1)^floor(N/2) delta_N^even on even elements,
        # DD^N = (-1)^ceil(N/2)  delta_N^odd  on odd ones
        p = params_of(0.0, 0.0)
        n = np.array([4, 5, 2, 7])
        c_pow, _, img_pow = ladder_images(N, p, SYM_POLY, n)
        c_chain, _, img_chain = ladder_images(N, p, SYM_POLY, n, True)
        sign = np.where(n % 2 == 0, (-1) ** (N // 2), (-1) ** ((N + 1) // 2))
        assert np.array_equal(img_pow, img_chain)
        assert_allclose(c_pow, sign * c_chain, rtol=1e-12)

    @pytest.mark.parametrize("N", range(1, 4))
    def test_d_power_on_jacobi_fn_shifts_parameters(self, N):
        # D phi_n^{a,b} = -r_n phi_{n-1}^{a+1,b+1}, r_n = sqrt(n (n + a + b + 1))
        p = params_of(1.5, -0.7)
        coef, params, img = ladder_images(N, p, JACOBI_FN, np.array([5, 7]))
        for c, n0 in zip(coef, (5, 7)):
            want = 1.0
            for k in range(N):
                n, q = n0 - k, p.shifted(k)
                want *= -math.sqrt(n * (n + q.alpha + q.beta + 1.0))
            assert c == pytest.approx(want)
        assert params == p.shifted(N)
        assert np.array_equal(img, np.array([5, 7]) - N)
        coef, _, img = ladder_images(6, p, JACOBI_FN, np.array([5, 7]))
        assert coef[0] == 0.0 and img[0] == 0 and coef[1] != 0.0

    def test_even_chain_kills_the_constant(self):
        p = params_of(0.0, 0.0)
        coef, _, _ = ladder_images(3, p, SYM_POLY, np.array([0, 2]), True)
        assert coef[0] == 0.0 and coef[1] != 0.0

    @pytest.mark.parametrize("N", range(1, 5))
    def test_jacobi_fn_chains_land_on_exact_parameters(self, N):
        # at (0.1, 0.3) shifting up and back by 1 does not round-trip, so an
        # interlaced chain must never take that route
        p = params_of(0.1, 0.3)
        assert (p.alpha + 1.0) - 1.0 != p.alpha
        n = np.array([0, 3, 6])
        assert ladder_images(N, p, JACOBI_FN, n, True)[1] == p.shifted(N % 2)
        assert ladder_images(N, p, JACOBI_FN, n)[1] == p.shifted(N)

    @pytest.mark.parametrize("N", range(1, 5))
    def test_fn_chain_matches_poly_chain(self, N):
        # D_N^even phi coefficients equal the delta_N^even coefficients
        p = params_of(1.5, 0.5)
        c_fn, params, img = ladder_images(N, p, JACOBI_FN, np.array([4, 2]), True)
        c_poly, _, _ = ladder_images(N, p, SYM_POLY, np.array([8, 4]), True)
        assert_allclose(c_fn, c_poly, rtol=1e-12)
        assert np.array_equal(img, np.array([4, 2]) - (N % 2))
        assert params.alpha == pytest.approx(p.alpha + (1 if N % 2 else 0))

    def test_rejects_a_negative_order(self):
        with pytest.raises(ValueError):
            ladder_images(-1, params_of(0.0, 0.0), SYM_POLY, np.array([2]), True)


class TestSecondOrderOperator:
    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
    def test_eigen_relation(self, a, b, n):
        # differential application vs lambda_<n>, no ladder identities involved
        p = params_of(a, b)
        elem = BasisElement(p, n, SYM_POLY)
        t = np.linspace(0.2, 2.95, 17)
        t = np.concatenate([-t[::2], t])
        got = basis.jacobi_operator_rows(p, [n], t)[0][0]
        lam = eigenvalue(p, half_index(n))
        want = lam * eval_basis(elem, t)
        assert_allclose(got, want, atol=1e-8 * (1 + abs(lam)), rtol=1e-8)

    @pytest.mark.parametrize("ab", PARAM_PAIRS)
    def test_rows_are_the_elements_bitwise(self, ab):
        # unsorted, with a repeat, both parities
        p, n = params_of(*ab), np.array([7, 0, 12, 3, 3, 8, 1])
        t = np.linspace(0.2, 2.95, 17)
        t = np.concatenate([-t[::2], t])
        JV, V = basis.jacobi_operator_rows(p, n, t)
        assert JV.shape == V.shape == (n.size, t.size)
        for k, jrow, row in zip(n, JV, V):
            elem = BasisElement(p, int(k), SYM_POLY)
            assert np.array_equal(jrow, basis.jacobi_operator_rows(p, [k], t)[0][0])
            assert np.array_equal(row, eval_basis(elem, t))

    def test_one_plan_per_order_with_a_factor_per_parity(self, monkeypatch):
        # 3 plans and 6 factors, where a table per (order, parity) that
        # summed every order up to its own took 6 and 12
        p, plans = params_of(1.5, -0.7), record_plans(monkeypatch)
        basis.jacobi_operator_rows(p, np.arange(9), np.linspace(-3.0, 3.0, 13))
        assert plans == [[(p, d), (p.shifted(1), d)] for d in range(3)]

    @pytest.mark.parametrize("ab", PARAM_PAIRS)
    def test_eigen_relation_through_zero(self, ab):
        # at theta = 0 the rows are the limit of A f' and A' f, which are
        # singular there: -(2 alpha + 2) f''(0) + lambda_0 f(0) on the even
        # elements, 0 on the odd ones
        p, n = params_of(*ab), np.arange(8)
        t = np.linspace(-3.0, 3.0, 13)
        assert 0.0 in t
        JV, V = basis.jacobi_operator_rows(p, n, t)
        want = eigenvalue(p, (n + 1) // 2)[:, None] * V
        assert np.all(np.abs(JV - want) <= 1e-14 * np.abs(want).max(axis=1, keepdims=True))
        zero = t == 0.0
        assert_allclose(JV[:, zero], want[:, zero], rtol=1e-14, atol=0.0)

    def test_coefficient_identities(self):
        p = params_of(1.5, -0.7)
        t = np.linspace(0.1, 3.0, 11)
        # A = 2b and -A' = (alpha+beta+1 + (alpha-beta) cos) / sin^2
        assert_allclose(coeff_A(p, t), 2 * coeff_b(p, t), rtol=1e-14)
        want = (p.alpha + p.beta + 1 + (p.alpha - p.beta) * np.cos(t)) / np.sin(t) ** 2
        assert_allclose(-coeff_A_prime(p, t), want, rtol=1e-12)


class TestValidation:
    def test_params_range(self):
        with pytest.raises(ValueError):
            JacobiParams(-1.0, 0.0)
        with pytest.raises(ValueError):
            JacobiParams(0.0, -1.5)

    def test_domain_checks(self):
        p = params_of(0.0, 0.0)
        with pytest.raises(ValueError):
            eval_basis(BasisElement(p, 2, TRIG_POLY), -0.3)
        with pytest.raises(ValueError):
            eval_basis(BasisElement(p, 2, SYM_POLY), 3.2)
        with pytest.raises(ValueError):
            psi(p, np.pi)

    def test_unknown_kind_and_ops(self):
        p = params_of(0.0, 0.0)
        with pytest.raises(ValueError):
            BasisElement(p, 1, "chebyshev")
        with pytest.raises(ValueError):
            ladder_images(1, p, TRIG_POLY, np.array([3]))
        with pytest.raises(ValueError):
            ladder_images(2, p, SYM_FN, np.array([3]), True)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=25),
    a=st.floats(min_value=-0.95, max_value=4.0),
    b=st.floats(min_value=-0.95, max_value=4.0),
    x=st.floats(min_value=-1.0, max_value=1.0),
)
@example(n=1, a=0.0, b=1.6686144172785375e-25, x=1.0)
def test_recurrence_tracks_mpmath(n, a, b, x):
    import mpmath as mp
    from hypothesis import assume

    got = jacobi_table(JacobiParams(a, b), n, x)[n, 0]
    try:
        # mpmath needs the working precision to hold a parameter far below 1
        # next to ones of order 1: at 53 bits it gives P_1^(0, 1e-25)(1) = 0,
        # not 1
        tiny = min((abs(v) for v in (a, b) if v), default=1.0)
        with mp.workprec(64 + max(0, -mp.mag(tiny))):
            want = float(mp.jacobi(n, a, b, x))
    except ValueError:
        # mpmath's hypergeometric route can fail to converge near x = +-1
        # for fractional parameters; that is its limitation, not a data point
        assume(False)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=40),
    a=st.floats(min_value=-0.95, max_value=4.0),
    b=st.floats(min_value=-0.95, max_value=4.0),
)
def test_eigenvalues_are_monotone_and_match_product_form(n, a, b):
    p = JacobiParams(a, b)
    lam = eigenvalue(p, n)
    assert lam >= p.lam0 - 1e-12
    # lam_n - lam_0 = n (n + alpha + beta + 1)
    assert lam - p.lam0 == pytest.approx(n * (n + a + b + 1.0), rel=1e-12, abs=1e-9)
