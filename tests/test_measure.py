"""Interval measures and the power-weight class criteria."""

from __future__ import annotations

import math

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from trigjacobi.basis import JacobiParams, psi
from trigjacobi.measure import (
    PowerWeight,
    ap_membership,
    ball_measure,
    bp_membership,
    interval_measure,
    mu_density,
    unweighted_bp_admissible,
    unweighted_bp_window,
)

PARAM_PAIRS = [(0.0, 0.0), (-0.5, -0.5), (1.5, -0.7), (-0.7, -0.6), (2.5, 3.5)]

# (alpha, beta, lo, hi) -> mu+((lo,hi)), mpmath quadrature (tests/oracles.py)
INTERVAL_MEASURES = {
    (-0.7, -0.6, 0.0, 1.0): 2.220941693009928844762,
    (-0.7, -0.6, 0.1, 0.4): 0.7186017022755532611939,
    (-0.7, -0.6, 1.2, 3.0): 2.322585853672223007753,
    (-0.7, -0.6, 2.9, 3.14): 0.4530292372345912948245,
    (-0.5, -0.5, 0.0, 1.0): 1.0,
    (-0.5, -0.5, 0.1, 0.4): 0.3,
    (-0.5, -0.5, 1.2, 3.0): 1.8,
    (-0.5, -0.5, 2.9, 3.14): 0.24,
    (0.0, 0.0, 0.0, 1.0): 0.2298488470659301412995,
    (0.0, 0.0, 0.1, 0.4): 0.03697158563757034164852,
    (0.0, 0.0, 1.2, 3.0): 0.676175125538559517455,
    (0.0, 0.0, 2.9, 3.14): 0.014520283288974511752,
    (1.5, -0.7, 0.0, 1.0): 0.0115091613312312031531,
    (1.5, -0.7, 0.1, 0.4): 0.0001261820365436688810862,
    (1.5, -0.7, 1.2, 3.0): 1.665403787068643668876,
    (1.5, -0.7, 2.9, 3.14): 0.8856540387660203412545,
    (2.5, 3.5, 0.0, 1.0): 0.0008440533456907929356845,
    (2.5, 3.5, 0.1, 0.4): 3.12984273442463137849e-06,
    (2.5, 3.5, 1.2, 3.0): 0.005692211276618914236368,
    (2.5, 3.5, 2.9, 3.14): 1.155548459588041839903e-09,
}


class TestIntervalMeasure:
    @pytest.mark.parametrize("key", sorted(INTERVAL_MEASURES))
    def test_frozen(self, key):
        a, b, lo, hi = key
        got = interval_measure(JacobiParams(a, b), lo, hi)
        assert_allclose(got, INTERVAL_MEASURES[key], rtol=1e-12)

    @pytest.mark.parametrize("key", sorted(INTERVAL_MEASURES))
    def test_adaptive_method_agrees(self, key):
        # adaptive quadrature of the density, independent of the closed form
        a, b, lo, hi = key
        p = JacobiParams(a, b)
        adaptive, _ = quad(lambda t: float(mu_density(p, t)), lo, hi, limit=200)
        assert_allclose(adaptive, interval_measure(p, lo, hi), rtol=1e-9)

    def test_ball_clipping(self):
        p = JacobiParams(0.0, 0.0)
        inner = ball_measure(p, 0.2, 0.1)
        assert_allclose(inner, interval_measure(p, 0.1, 0.3), rtol=1e-14)
        clipped = ball_measure(p, 0.1, 0.5)
        assert_allclose(clipped, interval_measure(p, 0.0, 0.6), rtol=1e-14)
        right = ball_measure(p, 3.0, 1.0)
        assert_allclose(right, interval_measure(p, 2.0, math.pi), rtol=1e-14)

    @pytest.mark.parametrize("ab", PARAM_PAIRS)
    def test_ball_arrays_are_the_clipped_intervals(self, ab):
        # balls inside (0, pi), clipped at 0, clipped at pi, clipped at both
        # and centered on an end: one array call equals interval_measure on
        # the clipped ends and the scalar calls one at a time, bit for bit
        p = JacobiParams(*ab)
        center = np.array([0.2, 0.1, 3.0, 1.5, 0.0, math.pi, 1.2, 2.9])
        radius = np.array([0.1, 0.5, 1.0, 2.0, 0.3, 0.3, 1e-9, 0.24])
        got = ball_measure(p, center, radius)
        lo = np.maximum(center - radius, 0.0)
        hi = np.minimum(center + radius, math.pi)
        assert np.array_equal(got, interval_measure(p, lo, hi))
        assert np.array_equal(got, [ball_measure(p, c, r) for c, r in zip(center, radius)])
        assert lo[[1, 3, 4]].tolist() == [0.0] * 3
        assert hi[[2, 3, 5]].tolist() == [math.pi] * 3

    @pytest.mark.parametrize("center,radius", [
        (-0.1, 0.2), (math.pi + 1e-9, 0.2), (1.0, 0.0), (1.0, -0.5),
        (math.nan, 0.2), (1.0, math.nan), ([0.5, -0.1], 0.2), (1.0, [0.2, 0.0])])
    def test_ball_validation(self, center, radius):
        with pytest.raises(ValueError):
            ball_measure(JacobiParams(0.0, 0.0), center, radius)

    @pytest.mark.parametrize("ab", PARAM_PAIRS)
    def test_arrays_are_the_scalar_calls(self, ab):
        # intervals left of, across and right of pi/2, empty ones and ones
        # ending at pi: one array call equals the calls one at a time
        p = JacobiParams(*ab)
        lo = np.array([0.0, 0.1, 0.3, 1.6, math.pi / 2, 2.0, 1.0, math.pi])
        hi = np.array([0.2, 1.5, 2.9, 2.5, 3.0, math.pi, 1.0, math.pi])
        got = interval_measure(p, lo, hi)
        assert np.array_equal(got, [interval_measure(p, a, b) for a, b in zip(lo, hi)])
        assert got[-2] == got[-1] == 0.0
        with pytest.raises(ValueError):
            interval_measure(p, lo, hi[::-1])

    def test_density_is_psi_squared(self):
        p = JacobiParams(1.5, -0.7)
        t = np.linspace(-3.0, 3.0, 11)
        assert_allclose(mu_density(p, t), psi(p, t) ** 2, rtol=1e-13)

    def test_total_mass_equals_norm_constant_relation(self):
        # mu+(0,pi) = 1/c_0^2
        from trigjacobi.basis import log_norm_constant

        for a, b in PARAM_PAIRS:
            p = JacobiParams(a, b)
            assert_allclose(interval_measure(p, 0.0, math.pi),
                            1.0 / np.exp(log_norm_constant(p, 0)) ** 2, rtol=1e-12)

    def test_validation(self):
        p = JacobiParams(0.0, 0.0)
        with pytest.raises(ValueError):
            interval_measure(p, 1.0, 0.5)

    def test_cli_import_leaves_out_scipy_integrate(self):
        code = "import sys, trigjacobi.cli; print('scipy.integrate' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "False"


class TestWeightClasses:
    def test_legendre_lebesgue_examples(self):
        # for a = b = 0 the mu+ class at p = 2 needs -2 < r < 2, -2 < s < 2
        p0 = JacobiParams(0.0, 0.0)
        assert ap_membership(p0, PowerWeight(1.9, -1.9), 2.0)
        assert not ap_membership(p0, PowerWeight(2.0, 0.0), 2.0)
        assert not ap_membership(p0, PowerWeight(0.0, -2.0), 2.0)

    def test_p_equal_one_upper_bound_closes(self):
        p0 = JacobiParams(0.0, 0.0)
        assert ap_membership(p0, PowerWeight(0.0, 0.0), 1.0)
        assert not ap_membership(p0, PowerWeight(0.1, 0.0), 1.0)
        assert bp_membership(p0, PowerWeight(0.5, 0.5), 1.0)  # upper = a+1/2
        assert not bp_membership(p0, PowerWeight(0.5 + 1e-9, 0.5), 1.0)

    def test_invalid_p(self):
        p0 = JacobiParams(0.0, 0.0)
        with pytest.raises(ValueError):
            ap_membership(p0, PowerWeight(0, 0), 0.5)
        with pytest.raises(ValueError):
            bp_membership(p0, PowerWeight(0, 0), math.inf)
        with pytest.raises(ValueError):
            ap_membership(p0, PowerWeight(np.zeros(2), np.zeros(2)), np.array([2.0, 0.5]))

    @pytest.mark.parametrize("ab", PARAM_PAIRS)
    def test_arrays_are_the_scalar_criteria(self, ab):
        # both classes elementwise on arrays of (r, s, p), against the
        # inequalities written out one draw at a time; the draws include
        # p = 1 and powers on the bounds of both classes
        a, b = ab
        rng = np.random.default_rng(5)
        r, s, p = rng.uniform((-6.0, -6.0, 1.0), (6.0, 6.0, 6.0), size=(2000, 3)).T
        p[:200] = 1.0
        r[200:300] = -(2 * a + 2)
        s[300:400] = (2 * b + 2) * (p[300:400] - 1)
        r[400:500] = p[400:500] - 1 + (a + 0.5) * p[400:500]
        s[:100] = 0.0

        def inside(lo, x, hi, closed):
            return lo < x and (x <= hi if closed else x < hi)

        want_ap, want_bp = [], []
        for ri, si, pi in zip(r.tolist(), s.tolist(), p.tolist()):
            closed = pi == 1.0
            want_ap.append(inside(-(2 * a + 2), ri, (2 * a + 2) * (pi - 1), closed)
                           and inside(-(2 * b + 2), si, (2 * b + 2) * (pi - 1), closed))
            want_bp.append(inside(-1 - (a + 0.5) * pi, ri, pi - 1 + (a + 0.5) * pi, closed)
                           and inside(-1 - (b + 0.5) * pi, si, pi - 1 + (b + 0.5) * pi,
                                      closed))
        params = JacobiParams(a, b)
        got_ap = ap_membership(params, PowerWeight(r, s), p)
        got_bp = bp_membership(params, PowerWeight(r, s), p)
        assert np.array_equal(got_ap, want_ap) and np.array_equal(got_bp, want_bp)
        assert 0 < np.count_nonzero(got_ap) < p.size
        for i in range(0, p.size, 97):
            one = ap_membership(params, PowerWeight(float(r[i]), float(s[i])), float(p[i]))
            assert type(one) is bool and one == want_ap[i]

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.floats(min_value=-0.95, max_value=3.0),
        b=st.floats(min_value=-0.95, max_value=3.0),
        r=st.floats(min_value=-6.0, max_value=6.0),
        s=st.floats(min_value=-6.0, max_value=6.0),
        p=st.floats(min_value=1.0, max_value=8.0),
    )
    def test_shift_equivalence(self, a, b, r, s, p):
        # dt-class membership of w_{r,s} must coincide with mu+-class
        # membership of the (a+1/2)(p-2), (b+1/2)(p-2) shift
        params = JacobiParams(a, b)
        w = PowerWeight(r, s)
        shifted = w.shifted((a + 0.5) * (p - 2.0), (b + 0.5) * (p - 2.0))
        assert bp_membership(params, w, p) == ap_membership(params, shifted, p)

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.floats(min_value=-0.95, max_value=3.0),
        b=st.floats(min_value=-0.95, max_value=3.0),
        p=st.floats(min_value=1.0, max_value=12.0),
    )
    def test_unweighted_window(self, a, b, p):
        params = JacobiParams(a, b)
        got = bp_membership(params, PowerWeight(0.0, 0.0), p)
        assert got == unweighted_bp_admissible(params, p)

    def test_window_endpoints(self):
        half = JacobiParams(-0.5, -0.5)
        assert unweighted_bp_window(half) == (0.0, 1.0)
        assert unweighted_bp_admissible(half, 1.0)
        low = JacobiParams(-0.8, 0.0)
        lo, hi = unweighted_bp_window(low)
        assert lo == pytest.approx(0.3)
        assert hi == pytest.approx(0.7)
        # 1/p inside (0.3, 0.7) passes, outside fails
        assert unweighted_bp_admissible(low, 2.0)       # 1/p = 0.5
        assert not unweighted_bp_admissible(low, 1.25)  # 1/p = 0.8
        assert not unweighted_bp_admissible(low, 4.0)   # 1/p = 0.25
        assert not bp_membership(low, PowerWeight(0.0, 0.0), 1.25)
        assert not bp_membership(low, PowerWeight(0.0, 0.0), 4.0)


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(min_value=-0.9, max_value=2.5),
    b=st.floats(min_value=-0.9, max_value=2.5),
    lo=st.floats(min_value=0.0, max_value=3.0),
    width=st.floats(min_value=1e-3, max_value=1.0),
)
def test_measure_additivity(a, b, lo, width):
    p = JacobiParams(a, b)
    hi = min(lo + width, math.pi)
    mid = (lo + hi) / 2.0
    whole = interval_measure(p, lo, hi)
    parts = interval_measure(p, lo, mid) + interval_measure(p, mid, hi)
    assert whole == pytest.approx(parts, rel=1e-10, abs=1e-300)
    assert whole >= 0.0
