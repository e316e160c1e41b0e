"""Kernel series against high-precision references and across routes.

The frozen numbers are mpmath sums of the plain spectral series with chains
applied by numerical differentiation (tests/oracles.py), so they check the
term-wise ladder route against a derivative route that never sees it.
"""

from __future__ import annotations

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from trigjacobi import verify
from trigjacobi.basis import BasisElement, JacobiParams, SYM_POLY, eval_basis
from trigjacobi.kernels import (
    COMPONENTS,
    DEFAULT_TRUNCATION,
    DiscreteMeasure,
    KernelHandle,
    TruncationConfig,
    TruncationError,
    eval_kernels,
    kernel_derivative,
    partial_derivative_kernel,
    poisson_kernel,
    symmetrized_kernel_pairs,
)
from trigjacobi.measure import ball_measure
from trigjacobi.quadrature import TGrid, gauss_jacobi_grid

from oracles import (appell_f4, bailey_kernel, even_kernel_half, poisson_circle,
                     poisson_derivatives_half, poisson_kernel_half, riesz_growth_half)
from test_kernel_stream import FixedLength

PARAM_PAIRS = [(0.0, 0.0), (-0.5, -0.5), (1.5, -0.7), (-0.7, -0.6), (2.5, 3.5)]

TH, PH, T = 0.7, 1.9, 0.8

# (alpha, beta, quantity) at theta=0.7, phi=1.9, t=0.8
KERNEL_VALUES = {
    (-0.7, -0.6, "even"): 0.053109415821443907409,
    (-0.7, -0.6, "even_chain1"): 0.051110397411380643272,
    (-0.7, -0.6, "even_chain2"): -0.075722141080015367815,
    (-0.7, -0.6, "even_dt"): 0.033172244831369954985,
    (-0.7, -0.6, "odd"): 0.035828401666257285048,
    (-0.7, -0.6, "odd_chain1"): -0.049755279712004493665,
    (-0.7, -0.6, "odd_chain2"): -0.075771740698546269275,
    (-0.7, -0.6, "shift_dth_dph"): -0.21241029873724113859,
    (-0.5, -0.5, "even"): 0.10468691830046592029,
    (-0.5, -0.5, "even_chain1"): 0.061714210851575646057,
    (-0.5, -0.5, "even_chain2"): -0.12164239251849022046,
    (-0.5, -0.5, "even_dt"): 0.078602208304611907978,
    (-0.5, -0.5, "odd"): 0.040272330299773261723,
    (-0.5, -0.5, "odd_chain1"): -0.076846804317438440277,
    (-0.5, -0.5, "odd_chain2"): -0.089378291555195568202,
    (-0.5, -0.5, "shift_dth_dph"): -0.25231139931247349469,
    (0.0, 0.0, "even"): 0.18296478087836906666,
    (0.0, 0.0, "even_chain1"): 0.11502987463037532045,
    (0.0, 0.0, "even_chain2"): -0.3680416295888722829,
    (0.0, 0.0, "even_dt"): 0.088169194020534756749,
    (0.0, 0.0, "odd"): 0.054082990503400394664,
    (0.0, 0.0, "odd_chain1"): -0.17315163917556253425,
    (0.0, 0.0, "odd_chain2"): -0.14894505637127297105,
    (0.0, 0.0, "shift_dth_dph"): -0.42216690420507475305,
    (1.5, -0.7, "even"): 0.17780086757386408259,
    (1.5, -0.7, "even_chain1"): 0.080731104165742438578,
    (1.5, -0.7, "even_chain2"): -0.58448481136989954117,
    (1.5, -0.7, "even_dt"): -0.032398394233316623281,
    (1.5, -0.7, "odd"): 0.063162936746707513936,
    (1.5, -0.7, "odd_chain1"): -0.46497993849185511807,
    (1.5, -0.7, "odd_chain2"): -0.20904946669529489903,
    (1.5, -0.7, "shift_dth_dph"): -0.61808240169989195819,
    (2.5, 3.5, "even"): 0.74359617840960025078,
    (2.5, 3.5, "even_chain1"): 1.1009234947957033409,
    (2.5, 3.5, "even_chain2"): -10.544425941303088432,
    (2.5, 3.5, "even_dt"): -0.93894940369296119298,
    (2.5, 3.5, "odd"): 0.16919112623569592028,
    (2.5, 3.5, "odd_chain1"): -1.6334583912014272386,
    (2.5, 3.5, "odd_chain2"): -2.16702185277266477,
    (2.5, 3.5, "shift_dth_dph"): -4.6004299752432485971,
}


def spot(handle, route=None, N=0, M=0):
    h = handle if N == 0 and M == 0 else kernel_derivative(handle, N, M, route=route)
    return h.eval_pairs([TH], [PH], [T])[0, 0]


class TestFrozenSpotValues:
    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    def test_components(self, a, b):
        p = JacobiParams(a, b)
        assert_allclose(spot(poisson_kernel(p, "even")),
                        KERNEL_VALUES[(a, b, "even")], rtol=1e-10)
        assert_allclose(spot(poisson_kernel(p, "odd")),
                        KERNEL_VALUES[(a, b, "odd")], rtol=1e-10)

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    @pytest.mark.parametrize("route", ["ladder", "direct"])
    def test_time_derivative(self, a, b, route):
        p = JacobiParams(a, b)
        got = spot(poisson_kernel(p, "even"), route, N=0, M=1)
        assert_allclose(got, KERNEL_VALUES[(a, b, "even_dt")], rtol=1e-9)

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    @pytest.mark.parametrize("route", ["ladder", "direct"])
    @pytest.mark.parametrize("N", [1, 2])
    def test_even_chains(self, a, b, route, N):
        p = JacobiParams(a, b)
        got = spot(poisson_kernel(p, "even"), route, N=N)
        assert_allclose(got, KERNEL_VALUES[(a, b, f"even_chain{N}")], rtol=1e-8)

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    @pytest.mark.parametrize("route", ["ladder", "direct"])
    @pytest.mark.parametrize("N", [1, 2])
    def test_odd_chains(self, a, b, route, N):
        p = JacobiParams(a, b)
        got = spot(poisson_kernel(p, "odd"), route, N=N)
        assert_allclose(got, KERNEL_VALUES[(a, b, f"odd_chain{N}")], rtol=1e-8)

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    def test_mixed_partials_of_shifted_kernel(self, a, b):
        p = JacobiParams(a, b)
        h = partial_derivative_kernel(p, shift=1, L=1, N=1, M=0)
        got = h.eval_pairs([TH], [PH], [T])[0, 0]
        assert_allclose(got, KERNEL_VALUES[(a, b, "shift_dth_dph")], rtol=1e-9)


class TestRouteAgreement:
    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    @pytest.mark.parametrize("comp", ["even", "odd"])
    def test_chains_agree_across_routes(self, a, b, N, comp):
        p = JacobiParams(a, b)
        base = poisson_kernel(p, comp)
        th = np.array([0.4, 1.2, 2.6, 0.9])
        ph = np.array([2.0, 0.5, 1.4, 2.9])
        t = np.array([0.3, 1.0, 5.0])
        lad = kernel_derivative(base, N, 0, route="ladder").eval_pairs(th, ph, t)
        dirc = kernel_derivative(base, N, 0, route="direct").eval_pairs(th, ph, t)
        scale = np.maximum(np.abs(lad), 1e-12)
        assert np.max(np.abs(lad - dirc) / scale) < 1e-6

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    def test_odd_component_shift_identity(self, a, b):
        # odd kernel equals (1/4) sin(theta) sin(phi) times the even kernel
        # with both parameters raised by one
        p = JacobiParams(a, b)
        th = np.array([0.3, 1.1, 2.2])
        ph = np.array([2.5, 0.8, 1.7])
        t = np.array([0.5, 2.0])
        odd = poisson_kernel(p, "odd").eval_pairs(th, ph, t)
        shifted = partial_derivative_kernel(p, 1, 0, 0, 0).eval_pairs(th, ph, t)
        want = 0.25 * (np.sin(th) * np.sin(ph))[:, None] * shifted
        assert_allclose(odd, want, rtol=1e-8)


class TestKernelStructure:
    def test_symmetry_in_arguments(self):
        p = JacobiParams(1.5, -0.7)
        h = poisson_kernel(p, "even")
        a = h.eval_pairs([0.6], [2.1], [0.7])
        b = h.eval_pairs([2.1], [0.6], [0.7])
        assert_allclose(a, b, rtol=1e-13)

    def test_matrix_matches_pairs(self):
        p = JacobiParams(0.0, 0.0)
        h = kernel_derivative(poisson_kernel(p, "odd"), 1, 0)
        th = np.array([0.5, 1.5, 2.5])
        ph = np.array([0.9, 2.8])
        mat = h.eval_matrix(th, ph, 0.6)
        assert mat.shape == (3, 2)
        for i in range(3):
            for j in range(2):
                pair = h.eval_pairs([th[i]], [ph[j]], [0.6])[0, 0]
                assert_allclose(mat[i, j], pair, rtol=1e-13)

    @pytest.mark.parametrize("comp", ["even", "odd"])
    def test_semigroup_law(self, comp):
        # the doubled kernels are the (0,pi) semigroup: the symmetrized
        # elements carry mu+ norm 1/2, so the halves compose to a half
        p = JacobiParams(1.5, -0.7)
        h = poisson_kernel(p, comp)
        grid = gauss_jacobi_grid(p, 120, "mu_plus")
        th, ph, t, s = 0.8, 2.0, 0.4, 0.7
        left = 2.0 * h.eval_matrix(np.array([th]), grid.nodes, t)[0]
        right = 2.0 * h.eval_matrix(grid.nodes, np.array([ph]), s)[:, 0]
        composed = np.sum(left * right * grid.weights)
        direct = 2.0 * h.eval_pairs([th], [ph], [t + s])[0, 0]
        assert_allclose(composed, direct, rtol=1e-6)

    def test_spectral_action_on_basis(self):
        # applying the even kernel matrix to P_n reproduces e^{-t sqrt(lam_n)} P_n / 2...
        # with the 1/2 absorbed by the symmetrized normalization; on (0,pi)
        # the action on P_n is e^{-t sqrt(lam_n)}/2 * P_n + parity mirror, so
        # use the quadrature directly
        p = JacobiParams(-0.7, -0.6)
        grid = gauss_jacobi_grid(p, 80, "mu_plus")
        h = poisson_kernel(p, "even")
        n, t = 4, 0.9
        vals = eval_basis(BasisElement(p, n, "trig_poly"), grid.nodes)
        mat = h.eval_matrix(grid.nodes, grid.nodes, t)
        got = mat @ (grid.weights * vals)
        lam = (n + (p.alpha + p.beta + 1) / 2.0) ** 2
        assert_allclose(got, 0.5 * math.exp(-t * math.sqrt(lam)) * vals, rtol=1e-8)

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    def test_domination_spot(self, a, b):
        p = JacobiParams(a, b)
        th = np.array([0.4, 1.0, 1.8, 2.7])
        ph = np.array([2.3, 1.6, 0.3, 1.1])
        t = np.array([0.1, 1.0, 10.0])
        even = poisson_kernel(p, "even").eval_pairs(th, ph, t)
        odd = poisson_kernel(p, "odd").eval_pairs(th, ph, t)
        assert np.all(even > 0.0)
        assert np.max(np.abs(odd) / even) < 1.0 + 1e-12

    def test_symmetrized_assembly(self):
        p = JacobiParams(1.5, -0.7)
        th = np.array([-0.9, 0.9, -0.9, 0.9])
        ph = np.array([1.4, 1.4, -1.4, -1.4])
        t = np.array([0.8])
        full = symmetrized_kernel_pairs(p, th, ph, t)
        even = poisson_kernel(p, "even").eval_pairs([0.9], [1.4], t)[0, 0]
        odd = poisson_kernel(p, "odd").eval_pairs([0.9], [1.4], t)[0, 0]
        want = np.array([even - odd, even + odd, even + odd, even - odd])
        assert_allclose(full[:, 0], want, rtol=1e-12)

    def test_eigenfunction_expansion_identity(self):
        # sum over the symmetrized family of e^{-t sqrt(lam_<n>)} Phi_n(th) Phi_n(ph)
        # equals even + odd parts, tying the components to the single series
        p = JacobiParams(0.0, 0.0)
        th, ph, t = 0.9, -2.1, 1.2
        total = 0.0
        for n in range(0, 60):
            lam = ((n + 1) // 2 + 0.5) ** 2
            fn_th = eval_basis(BasisElement(p, n, SYM_POLY), th)[0]
            fn_ph = eval_basis(BasisElement(p, n, SYM_POLY), ph)[0]
            total += math.exp(-t * math.sqrt(lam)) * fn_th * fn_ph
        got = symmetrized_kernel_pairs(p, [th], [ph], [t])[0, 0]
        assert_allclose(got, total, rtol=1e-10)


class TestKernelDescription:
    # one set of fields describes every kernel: the Poisson kernel is the
    # chain of order 0, a size-lemma partial the direct route

    @pytest.mark.parametrize("N,M", [(0, 1), (0, 2), (1, 0), (1, 1)])
    def test_unshifted_partial_is_the_direct_route(self, N, M):
        p = JacobiParams(1.5, -0.7)
        want = kernel_derivative(poisson_kernel(p, "even"), N, M, "direct")
        assert partial_derivative_kernel(p, 0, 0, N, M) == want

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    @pytest.mark.parametrize("comp", ["even", "odd"])
    def test_poisson_kernel_is_the_direct_route_of_order_zero(self, a, b, comp):
        p = JacobiParams(a, b)
        th, ph, t = np.array([0.05, 0.7, 2.4]), np.array([1.9, 0.3, 3.05]), [0.02, 0.3]
        direct = KernelHandle(p, comp, route="direct")
        assert direct == poisson_kernel(p, comp)
        for cfg in (FixedLength(n=37), FixedLength(n=300)):
            got = poisson_kernel(p, comp).eval_pairs(th, ph, t, cfg)
            assert np.array_equal(got, direct.eval_pairs(th, ph, t, cfg))

    def test_derivatives_start_from_a_semigroup_kernel(self):
        p = JacobiParams(0.0, 0.0)
        derived = kernel_derivative(poisson_kernel(p, "odd"), 1, 0)
        for h in (derived, partial_derivative_kernel(p, 0, 1, 0, 0)):
            with pytest.raises(ValueError, match="semigroup kernel"):
                kernel_derivative(h, 1, 0)
        # a shift with no orders is the Poisson kernel at the shifted parameters
        shifted = poisson_kernel(p.shifted(1), "even")
        assert (kernel_derivative(partial_derivative_kernel(p, 1, 0, 0, 0), 1, 0)
                == kernel_derivative(shifted, 1, 0))

    @pytest.mark.parametrize("fields", [
        ("evn",), ("even", 1, 0, "diagonal"), ("odd", 0, 1, "diagonal"), ("odd", -1),
        ("even", 0, -2), ("even", 1, 0, "ladder", -1), ("odd", 1.0), ("even", 0, 0.5),
        ("even", 1, 0, "direct", "1")])
    def test_a_handle_checks_its_own_fields(self, fields):
        # a component, a route (also at N = 0, where it stores "ladder"),
        # and N, M, L as nonnegative integers
        with pytest.raises(ValueError, match="not a kernel"):
            KernelHandle(JacobiParams(0.0, 0.0), *fields)

    @pytest.mark.parametrize("comp", COMPONENTS)
    @pytest.mark.parametrize("M,L", [(0, 0), (1, 0), (2, 1)])
    def test_an_order_zero_chain_has_one_handle(self, comp, M, L):
        # both routes sum one series at N = 0, so they make one handle;
        # from N = 1 they are two
        p = JacobiParams(1.5, -0.7)
        ladder, direct = (KernelHandle(p, comp, 0, M, route, L) for route in ("ladder", "direct"))
        assert ladder == direct and hash(ladder) == hash(direct)
        assert direct.route == "ladder"
        assert KernelHandle(p, comp, 1, M, "ladder", L) != KernelHandle(p, comp, 1, M, "direct", L)

    @pytest.mark.parametrize("L,N,M", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 2), (1, 1, 1)])
    def test_a_partial_derivative_is_a_handle_at_shifted_parameters(self, L, N, M):
        p = JacobiParams(-0.7, -0.6)
        want = KernelHandle(p.shifted(1), "even", N, M, "direct", L)
        assert partial_derivative_kernel(p, 1, L, N, M) == want

    def test_empty_pair_set_gives_no_rows(self):
        # no rows, one column per time, as basis_matrix and eval_matrix give
        # no rows on no points; the direct odd chain sums a factor of two terms
        p = JacobiParams(1.5, -0.7)
        chain = kernel_derivative(poisson_kernel(p, "odd"), 1, 0, route="direct")
        assert poisson_kernel(p, "even").eval_pairs([], [], 0.5).shape == (0, 1)
        assert chain.eval_pairs([], [], [0.5, 2.0]).shape == (0, 2)
        assert symmetrized_kernel_pairs(p, [], [], [0.5, 2.0]).shape == (0, 2)

    def test_empty_time_set_is_rejected(self):
        h = poisson_kernel(JacobiParams(1.5, -0.7), "even")
        with pytest.raises(ValueError, match="at least one time"):
            h.eval_pairs([1.0], [2.0], [])


class TestTruncation:
    def test_monotone_in_t(self):
        cfg = TruncationConfig()
        p = JacobiParams(0.0, 0.0)
        ns = [cfg.series_length(p, t, 0) for t in (0.01, 0.1, 1.0, 10.0)]
        assert ns == sorted(ns, reverse=True)

    def test_cap_limits_t(self):
        cfg = TruncationConfig(n_cap=200)
        p = JacobiParams(0.0, 0.0)
        with pytest.raises(TruncationError, match="n_cap=200"):
            cfg.series_length(p, 1e-6, 0)
        with pytest.raises(TruncationError, match="n_cap=200"):
            cfg.series_length(p, 0.01, 0)

    @pytest.mark.parametrize("t", [1e-320, 5e-324, np.float64(5e-324)])
    def test_tiny_t_raises_before_overflow(self, t):
        # -log(eps) / t overflows here; the cap rejects such a t up front,
        # so no RuntimeWarning is raised on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TruncationError, match="n_cap"):
                DEFAULT_TRUNCATION.series_length(JacobiParams(0.0, 0.0), t, 0)

    @pytest.mark.parametrize("field,value", [
        ("eps_tail", 0.0), ("eps_tail", -1.0), ("eps_tail", math.nan),
        ("eps_tail", 1.0), ("eps_tail", 2.0), ("eps_tail", math.inf),
        ("n_cap", 0), ("n_cap", -1)])
    def test_rejects_bad_fields_where_built(self, field, value):
        # a tail target of 1 or more would sum a handful of terms silently;
        # a bad field is a configuration error, not a numeric failure
        with pytest.raises(ValueError, match=field) as info:
            TruncationConfig(**{field: value})
        assert not isinstance(info.value, TruncationError)

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    def test_default_cap_covers_the_sweep_kernels(self, a, b, monkeypatch):
        # at the quick sweep's t_min the default cap covers the plain orders
        # 0-4 and every kernel the sweep checks build, among them the lemma
        # ratios' partial derivatives at shifted parameters
        cfg, t_min = TruncationConfig(), verify.QUICK_SWEEP.t_min
        p = JacobiParams(a, b)
        for orders in range(5):
            assert cfg.series_length(p, t_min, orders) <= cfg.n_cap

        handles = []

        def record(jobs, theta, phi, cfg=None):
            handles.extend(h for h, _ in jobs)
            return [np.zeros((np.size(theta), np.size(ts))) for _, ts in jobs]

        monkeypatch.setattr(verify, "eval_kernels", record)
        # the kernels a check builds do not depend on the pairs it sweeps
        spec = verify.SweepSpec(n_theta=1, levels=1)
        assert spec.truncation() == cfg
        verify.check_standard_estimates(p, spec, "full")
        verify.check_lemma_instances(p, spec, "full")
        kinds = {"poisson" if h == poisson_kernel(h.params, h.component)
                 else "partial" if h.params != p else h.route for h in handles}
        assert kinds == {"poisson", "ladder", "direct", "partial"}
        for h in handles:
            assert cfg.series_length(h.params, t_min, h.orders) <= cfg.n_cap

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    def test_lemma_partials_hold_their_tail_without_the_shift(self, a, b):
        # the shift enters the truncation exponent once, through the shifted
        # parameters; the quick lemma partials at the sweep's t_min then
        # differ from a series 1.5x longer (or more) by at most eps_tail
        # times the sum of the absolute values of their terms, here bounded
        # below by that of their first 600 terms
        from test_kernel_stream import reference

        p, t = JacobiParams(a, b), np.array([5e-3])
        _, theta, phi = verify.QUICK_SWEEP.pairs()
        cfg = verify.QUICK_SWEEP.truncation()
        handles = [partial_derivative_kernel(p, 1, *key)
                   for key in ((0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1))]
        for h in handles:
            assert h.orders == h.L + h.N + h.M
        n = max(cfg.series_length(h.params, t[0], h.orders) for h in handles)
        got = eval_kernels([(h, t) for h in handles], theta, phi, cfg)
        longer = eval_kernels([(h, t) for h in handles], theta, phi,
                              FixedLength(n=3 * n // 2))
        for h, short, long_ in zip(handles, got, longer):
            _, scale = reference(h, 600, theta, phi, t)
            assert np.all(np.abs(short - long_) <= cfg.eps_tail * scale), h

    def test_tail_bound_is_honest(self):
        # doubling the computed length must not change the kernel beyond eps
        p = JacobiParams(1.5, -0.7)
        cfg = DEFAULT_TRUNCATION
        h = poisson_kernel(p, "even")
        n = cfg.series_length(p, 0.05, 0)
        a = h.eval_pairs([0.7], [1.9], [0.05], cfg)[0, 0]
        b = h.eval_pairs([0.7], [1.9], [0.05], FixedLength(n=min(2 * n, 4000)))[0, 0]
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    @pytest.mark.parametrize("component,sign", [("even", 1.0), ("odd", -1.0)])
    def test_below_the_sweep_grids_matches_the_closed_form(self, component, sign):
        # at (-1/2, -1/2) the components are (P(theta - phi) +- P(theta + phi))
        # / (4 pi) with the Poisson kernel P(x, t) = sinh t / (cosh t - cos x);
        # below the sweeps' t_min only the term cap limits t, and the default
        # one sums these series in full (the last pair is near the diagonal)
        theta = np.array([0.3, 1.0, 0.05, 1.0])
        phi = np.array([2.9, 2.0, 3.1, 1.01])
        t = np.array([1e-3, 2e-3])
        got = poisson_kernel(JacobiParams(-0.5, -0.5), component).eval_pairs(theta, phi, t)

        def P(x):
            return np.sinh(t) / (np.cosh(t) - np.cos(x)[:, None])

        want = (P(theta - phi) + sign * P(theta + phi)) / (4.0 * math.pi)
        assert_allclose(got, want, rtol=0.0, atol=1e-10)


# small-t series lengths explode like q/t, so time-integrated kernels run on
# grids cut at 5e-3, where a cap of 32768 terms covers them
CFG_SWEEP = TruncationConfig(eps_tail=1e-10, n_cap=32768)


class TestIntegratedKernels:
    @staticmethod
    def riesz(h, N, tg, th, ph, route="ladder"):
        # (1/Gamma(N)) int_0^inf (chain kernel) t^{N-1} dt on the time grid
        samples = kernel_derivative(h, N, 0, route).eval_pairs(th, ph, tg.nodes, CFG_SWEEP)
        return tg.integrate(samples, N) / math.gamma(N)

    def test_riesz_kernel_converged_in_t_max(self):
        p = JacobiParams(0.0, 0.0)
        h = poisson_kernel(p, "odd")
        th = np.array([0.5, 1.3])
        ph = np.array([2.2, 2.9])
        k1 = self.riesz(h, 1, TGrid(5e-3, 40.0), th, ph)
        k2 = self.riesz(h, 1, TGrid(5e-3, 80.0), th, ph)
        assert_allclose(k1, k2, rtol=1e-6)

    def test_riesz_routes_agree(self):
        p = JacobiParams(1.5, -0.7)
        h = poisson_kernel(p, "odd")
        th = np.array([0.5, 1.3])
        ph = np.array([2.2, 2.9])
        grid = TGrid(5e-3, 40.0)
        a = self.riesz(h, 2, grid, th, ph, route="ladder")
        b = self.riesz(h, 2, grid, th, ph, route="direct")
        assert_allclose(a, b, rtol=1e-6)

    def test_laplace_profile_multiplier(self):
        # profile phi = 1 gives -int d_t K_t dt = K_{t_min} - K_{t_max} exactly;
        # at 16 points per decade the quadrature misses rtol 1e-6 (3.4e-6)
        p = JacobiParams(0.0, 0.0)
        h = poisson_kernel(p, "even")
        grid = TGrid(5e-3, 30.0, points_per_decade=64)
        th, ph = np.array([0.9]), np.array([2.0])
        dt = kernel_derivative(h, 0, 1).eval_pairs(th, ph, grid.nodes, CFG_SWEEP)
        got = -grid.integrate(dt, 1.0)[0]
        ends = h.eval_pairs(th, ph, np.array([5e-3, 30.0]), cfg=CFG_SWEEP)[0]
        assert_allclose(got, ends[0] - ends[1], rtol=1e-6)

    def test_discrete_measure_validation(self):
        with pytest.raises(ValueError):
            DiscreteMeasure((), ())
        with pytest.raises(ValueError):
            DiscreteMeasure((0.0,), (1.0,))
        with pytest.raises(ValueError):
            DiscreteMeasure((math.nan,), (1.0,))
        with pytest.raises(ValueError):
            DiscreteMeasure((1.0,), (math.inf,))
        with pytest.raises(ValueError):
            DiscreteMeasure((1.0, 2.0), (1.0,))


class TestHalfIntegerClosedForm:
    """At alpha, beta in {-1/2, 1/2} the Poisson kernel is elementary
    (oracles.py), an oracle that reaches the sweep region: small t, near the
    diagonal."""

    P = JacobiParams(-0.5, -0.5)

    def test_components_on_the_quick_sweep(self):
        # errors relative to (P(theta - phi) + P(theta + phi)) / (4 pi), which
        # bounds both components; measured 6.8e-10 (even) and 4.9e-10 (odd),
        # both at t = 5e-3 and d = pi/2
        _, theta, phi = verify.QUICK_SWEEP.pairs()
        t = verify.QUICK_SWEEP.tgrid().nodes
        got = eval_kernels([(poisson_kernel(self.P, c), t) for c in COMPONENTS],
                           theta, phi)
        want = poisson_kernel_half(theta[:, None], phi[:, None], t)
        for comp, g, w in zip(COMPONENTS, got, want):
            err = np.max(np.abs(g - w) / want[0])
            assert err <= 1e-9, (comp, err)

    @pytest.mark.parametrize("route", ["ladder", "direct"])
    @pytest.mark.parametrize("component", COMPONENTS)
    def test_dt_and_chain_on_the_quick_sweep(self, component, route):
        # errors relative to the closed forms' scales (oracles.py); measured
        # at most 1.4e-9 (d_t) and 3.5e-7 (the chain), all at t = 5e-3 and
        # d = pi/2. A flipped chain sign reads about 2
        _, theta, phi = verify.QUICK_SWEEP.pairs()
        t = verify.QUICK_SWEEP.tgrid().nodes
        want = poisson_derivatives_half(theta[:, None], phi[:, None], t)
        handle, orders = poisson_kernel(self.P, component), ((0, 1), (1, 0))
        got = eval_kernels([(kernel_derivative(handle, N, M, route), t) for N, M in orders],
                           theta, phi)
        for (N, M), g, tol in zip(orders, got, (2e-9, 5e-7)):
            value, scale = want[component, N, M]
            err = np.max(np.abs(g - value) / scale)
            assert err <= tol, (N, M, err)

    def test_symmetrized_kernel_on_wide_pairs(self):
        # even + sign(theta phi) odd is the circle's Poisson kernel
        # P(theta - phi) / (2 pi). 2000 pairs take a reduced window (43 rows
        # of 4000 columns); measured 1.1e-11 relative
        rng = np.random.default_rng(0)
        theta, phi = (rng.uniform(0.02, math.pi - 0.02, (2, 2000))
                      * rng.choice((-1.0, 1.0), (2, 2000)))
        got = symmetrized_kernel_pairs(self.P, theta, phi, [0.05])[:, 0]
        want = poisson_circle(theta - phi, 0.05) / (2.0 * math.pi)
        assert np.max(np.abs(got - want) / want) <= 5e-11

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.5, -0.5), (-0.5, 0.5)])
    def test_even_component_on_the_quick_sweep(self, a, b):
        # S_c closed forms, c = 1 and 1/2; measured at most 2.2e-8 relative
        # at (1/2, 1/2) and 1.3e-8 at the other two, all at t = 5e-3 and a
        # pair next to an end of (0, pi), where the closed form divides by
        # sin theta or cos(theta/2)
        _, theta, phi = verify.QUICK_SWEEP.pairs()
        t = verify.QUICK_SWEEP.tgrid().nodes
        got = poisson_kernel(JacobiParams(a, b), "even").eval_pairs(theta, phi, t)
        want = even_kernel_half(a, b, theta[:, None], phi[:, None], t)
        assert np.max(np.abs(got - want) / want) <= 5e-8

    def test_riesz_growth_constant_of_the_quick_profile(self):
        # the quick report integrates the odd chain of order 1 over its time
        # grid; the closed form integrates it exactly over [t_min, t_max]:
        # 0.4182861241 against 0.41828612547, 3.2e-9 relative
        spec = verify.QUICK_SWEEP
        d, theta, phi = spec.pairs()
        want = np.max(riesz_growth_half(theta, phi, spec.t_min, spec.t_max)
                      * ball_measure(self.P, theta, d))
        reports = verify.check_standard_estimates(self.P, spec, "quick")
        got = next(r.constant for r in reports if r.claim == "riesz-kernel-odd-N1/growth")
        assert abs(got / want - 1.0) <= 1e-8, (got, want)


class TestBaileyClosedForm:
    """Bailey's bilinear generating function (oracles.bailey_kernel): both
    components in closed form at every (alpha, beta), as a sum of positive
    terms, so it reaches the sweep's far pairs at small t, where the
    series cancels."""

    # (alpha, beta, t) -> the worst relative error allowed, (even, odd), on
    # the quick sweep's pairs with d >= pi/4: ten times the error measured,
    # the float64 series' rounding. Norm constants taken as differences of
    # log-Gamma values read 3.0e-2 and 6.8e-1 at (2.5, 3.5), t = 5e-3, and
    # 1.9e-6 and 1.9e-4 at (1.5, -0.7)
    TOLERANCES = {
        (0.0, 0.0, 5e-3): (4e-11, 5e-9), (0.0, 0.0, 2e-2): (4e-12, 1.2e-10),
        (-0.5, -0.5, 5e-3): (3.5e-11, 1.5e-9), (-0.5, -0.5, 2e-2): (3.7e-11, 2.2e-9),
        (1.5, -0.7, 5e-3): (1e-8, 1.2e-6), (1.5, -0.7, 2e-2): (3.1e-10, 2.9e-8),
        (-0.7, -0.6, 5e-3): (2.1e-10, 4.5e-9), (-0.7, -0.6, 2e-2): (3.1e-10, 2.3e-9),
        (2.5, 3.5, 5e-3): (2.5e-4, 8.6e-3), (2.5, 3.5, 2e-2): (1.2e-6, 1.1e-4),
    }

    def test_f4_sum_matches_mpmath(self):
        # the F4 of the even kernel at (2.5, 3.5) and the odd one at
        # (1.5, -0.7), at rho = 0.86 and 0.83; measured 2.2e-16 both
        for args in [(4.0, 4.5, 3.5, 4.5, 0.1, 0.3), (2.4, 2.9, 3.5, 1.3, 0.2, 0.15)]:
            with mp.workdps(30):
                want = float(mp.appellf4(*args, maxterms=10**6))
            assert_allclose(appell_f4(*args[:4], *np.array([args[4:]]).T), [want], rtol=1e-14)

    @pytest.mark.parametrize("a,b,t", sorted(TOLERANCES))
    def test_components_on_the_far_sweep_pairs(self, a, b, t):
        d, theta, phi = verify.QUICK_SWEEP.pairs()
        far = d >= math.pi / 4.0
        assert far.sum() == 42
        theta, phi = theta[far], phi[far]
        got = eval_kernels([(poisson_kernel(JacobiParams(a, b), c), [t]) for c in COMPONENTS],
                           theta, phi)
        for comp, g, tol in zip(COMPONENTS, got, self.TOLERANCES[a, b, t]):
            want = bailey_kernel(a, b, comp, theta, phi, t)
            err = np.max(np.abs(g[:, 0] / want - 1.0))
            assert err <= tol, (comp, err)
