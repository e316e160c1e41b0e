"""The streamed kernel series against a reference built outside the package.

The reference sums each series term by term from Jacobi polynomial values
computed as scipy.special.eval_jacobi computes them, and the closed-form
Gamma norms, with every factor spelled out from its definition; nothing
here comes from trigjacobi.basis. Series lengths are forced with n_override
just below, at and above one chunk of the engine, and across several chunks.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import binom, eval_jacobi, gammaln

from trigjacobi import basis
from trigjacobi.basis import JacobiParams
from trigjacobi.kernels import (
    _CHUNK,
    KernelHandle,
    TruncationConfig,
    eval_kernels,
    kernel_derivative,
    poisson_kernel,
)

PARAMS = [(0.0, 0.0), (1.5, -0.7), (-0.7, -0.6)]
LENGTHS = [_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 17]
TIMES = np.array([0.02, 0.3])
THETA = np.array([0.05, 0.7, 1.6, 2.4, 3.1])
PHI = np.array([1.9, 0.3, 1.55, 3.05, 0.02])
# lengths from tens of terms to several chunks, in no particular order
MIXED_TIMES = np.array([0.4, 0.01, 3.0, 0.05, 0.01, 1.0])


def norm(a, b, n):
    """c_n with c_n P_n^{(a,b)}(cos theta) of unit norm in dmu+."""
    n = np.asarray(n, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        generic = 0.5 * (np.log(2 * n + a + b + 1) + gammaln(n + 1)
                         + gammaln(n + a + b + 1) - gammaln(n + a + 1)
                         - gammaln(n + b + 1))
    zero = 0.5 * (gammaln(a + b + 2) - gammaln(a + 1) - gammaln(b + 1))
    return np.exp(np.where(n == 0, zero, generic))


def jacobi_rows(a, b, n, x):
    """P_k^{(a,b)}(x) for k < n (n >= 2), rows k: scipy's algorithm for an
    integer degree (the recurrence for p_{k+1} - p_k in x - 1, times
    binom(k + a, k)), kept at every degree. Each row equals
    eval_jacobi(k, a, b, x), at O(1) cost per degree where one eval_jacobi
    call costs O(k)."""
    xm1 = x - 1.0
    rows = np.empty((n, x.size))
    rows[0] = 1.0
    rows[1] = 0.5 * (2.0 * (a + 1.0) + (a + b + 2.0) * xm1)
    d = (a + b + 2.0) * xm1 / (2.0 * (a + 1.0))
    p = d + 1.0
    for k in range(1, n - 1):
        t = 2.0 * k + a + b
        d = ((t * (t + 1.0) * (t + 2.0)) * xm1 * p + 2.0 * k * (k + b) * (t + 2.0) * d) / (
            2.0 * (k + a + 1.0) * (k + a + b + 1.0) * t)
        p = d + p
        rows[k + 1] = binom(k + 1.0 + a, k + 1.0) * p
    return rows


def poly(a, b, k, theta):
    """c_k P_k(cos theta), rows k, columns theta; zero rows for k < 0."""
    k = np.asarray(k)
    out = np.zeros((k.size, theta.size))
    live = k >= 0
    kk = k[live]
    rows = jacobi_rows(a, b, int(k.max()) + 1, np.cos(theta))
    out[live] = norm(a, b, kk[:, None]) * rows[kk]
    return out


def poly_dtheta(a, b, k, theta):
    """d/dtheta c_k P_k(cos theta) = -sin(theta) c_k (k+a+b+1)/2 P_{k-1}^{(a+1,b+1)}."""
    k = np.asarray(k)
    out = np.zeros((k.size, theta.size))
    live = k >= 1
    kk = k[live][:, None]
    rows = jacobi_rows(a + 1, b + 1, int(k.max()), np.cos(theta))
    out[live] = (-np.sin(theta)[None, :] * norm(a, b, kk) * (kk + a + b + 1) / 2.0
                 * rows[kk[:, 0] - 1])
    return out


def test_jacobi_rows_equal_eval_jacobi():
    # at every parameter pair the reference reads: the odd part and
    # d/dtheta each shift (a, b) by one, so shifts 0-2 of each pair
    x = np.cos(np.concatenate([THETA, PHI]))
    n = LENGTHS[-1]
    for a, b in PARAMS + [(2.5, 3.5)]:
        for s in range(3):
            want = eval_jacobi(np.arange(n)[:, None], a + s, b + s, x)
            np.testing.assert_allclose(jacobi_rows(a + s, b + s, n, x), want,
                                       rtol=1e-14, atol=0.0)


def test_jacobi_rows_equal_eval_jacobi_on_long_series():
    # the longest series the reference sums, in
    # test_mixed_lengths_equal_single_time_calls, read at every 97th degree
    x = np.cos(np.concatenate([THETA, PHI]))
    h = KernelHandle(JacobiParams(1.5, -0.7), "odd", 1, 1)
    n = TruncationConfig().series_length(h.table_params, MIXED_TIMES.min(), h.orders)
    assert n > 5000
    ks = np.append(np.arange(0, n, 97), n - 1)
    for s in range(3):
        want = eval_jacobi(ks[:, None], 1.5 + s, -0.7 + s, x)
        np.testing.assert_allclose(jacobi_rows(1.5 + s, -0.7 + s, n, x)[ks], want,
                                   rtol=1e-14, atol=0.0)


def odd(a, b, k, theta):
    """s_k = (1/2) sin(theta) c'_k P_k^{(a+1,b+1)}(cos theta)."""
    return 0.5 * np.sin(theta)[None, :] * poly(a + 1, b + 1, k, theta)


def odd_dtheta(a, b, k, theta):
    return 0.5 * (np.cos(theta)[None, :] * poly(a + 1, b + 1, k, theta)
                  + np.sin(theta)[None, :] * poly_dtheta(a + 1, b + 1, k, theta))


def reference(h, n, theta, phi, t):
    """Kernel values and the sum of the absolute values of the terms,
    both of shape (npairs, nt), from the series' definition."""
    ks = np.arange(n)
    a, b = h.params.alpha + h.shift, h.params.beta + h.shift
    idx = ks if h.component == "even" else ks + 1
    speed = np.abs(idx + (a + b + 1) / 2.0)  # sqrt(lam)
    root = np.sqrt(idx * (idx + a + b + 1.0))
    base = poly if h.component == "even" else odd
    ph = (poly_dtheta if h.L else base)(a, b, ks, phi)
    N, M = h.N, h.M
    if h.route == "direct":
        # (d_t^2 - lam_0)^{N//2} d_t^M; first-order tail applied in theta
        coef = 0.5 * root ** (2 * (N // 2)) * (-speed) ** M
        if N % 2 == 0:
            th = base(a, b, ks, theta)
        elif h.component == "even":
            th = poly_dtheta(a, b, ks, theta)
        else:
            A = ((a + 0.5) / np.tan(theta / 2.0)
                 - (b + 0.5) * np.tan(theta / 2.0))
            th = -odd_dtheta(a, b, ks, theta) - A[None, :] * odd(a, b, ks, theta)
    else:
        # ladder: delta P_k = -r_k s_{k-1}, delta* s_k = -r_{k+1} P_{k+1}
        coef = 0.5 * (-speed) ** M * (-root) ** N
        if N % 2 == 0:
            th = base(a, b, ks, theta)
        elif h.component == "even":
            th = odd(a, b, ks - 1, theta)
        else:
            th = poly(a, b, ks + 1, theta)
    terms = (coef[:, None, None] * np.exp(-np.outer(speed, t))[:, None, :]
             * (th * ph)[:, :, None])
    return terms.sum(axis=0), np.abs(terms).sum(axis=0)


def kinds():
    """KernelHandle fields after the parameters: (component, N, M, route,
    shift, L). The Poisson kernels, chains of orders 1-4 by both routes, and
    size-lemma partials (the direct route at shifted parameters)."""
    out = [(comp,) for comp in ("even", "odd")]
    for route in ("ladder", "direct"):
        for comp in ("even", "odd"):
            out += [(comp, N, 0, route) for N in range(1, 5)]
    out += [("even", N, 0, "direct", 1, L) for L in (0, 1) for N in (0, 1)]
    out += [("odd", 1, 1), ("even", 0, 2, "direct", 0, 1)]
    return out


@pytest.mark.parametrize("a,b", PARAMS)
@pytest.mark.parametrize("kind", kinds(), ids=str)
def test_matches_reference_series(a, b, kind):
    h = KernelHandle(JacobiParams(a, b), *kind)
    for n in LENGTHS:
        got = h.eval_pairs(THETA, PHI, TIMES, n_override=n)
        want, scale = reference(h, n, THETA, PHI, TIMES)
        assert np.all(np.abs(got - want) <= 1e-12 * scale), (n, got - want)


@pytest.mark.parametrize("a,b", PARAMS)
@pytest.mark.parametrize("kind", [("even",), ("even", 1, 0), ("odd", 1, 0, "direct"),
                                  ("even", 1, 0, "direct", 1, 1)], ids=str)
def test_matrix_matches_reference_series(a, b, kind):
    h = KernelHandle(JacobiParams(a, b), *kind)
    cfg = TruncationConfig()
    t = 0.05
    n = cfg.series_length(h.table_params, t, h.orders)
    assert n > _CHUNK
    grid = np.array([0.1, 0.9, 1.7, 2.9])
    got = h.eval_matrix(grid, grid, t)
    th, ph = np.meshgrid(grid, grid, indexing="ij")
    want, scale = reference(h, n, th.ravel(), ph.ravel(), np.array([t]))
    assert np.all(np.abs(got.ravel() - want[:, 0]) <= 1e-12 * scale[:, 0])


@pytest.mark.parametrize("comp", ["even", "odd"])
def test_mixed_lengths_equal_single_time_calls(comp):
    h = KernelHandle(JacobiParams(1.5, -0.7), comp, 1, 1)
    cfg = TruncationConfig()
    t = MIXED_TIMES
    together = h.eval_pairs(THETA, PHI, t, cfg)
    for i, ti in enumerate(t):
        alone = h.eval_pairs(THETA, PHI, [ti], cfg)[:, 0]
        n = cfg.series_length(h.table_params, ti, h.orders)
        want, scale = reference(h, n, THETA, PHI, np.array([ti]))
        assert np.all(np.abs(together[:, i] - alone) <= 1e-13 * scale[:, 0])
        assert np.all(np.abs(together[:, i] - want[:, 0]) <= 1e-12 * scale[:, 0])


@pytest.mark.parametrize("a,b", PARAMS)
def test_one_pass_equals_single_handle_calls(a, b):
    # every kind in one pass, sharing its recurrences. At the mixed-length
    # times every other job sums its times in reverse order; the reference
    # is summed at the forced lengths only, since it takes one length for all
    # times (the single-handle path meets it at each mixed-length time in
    # test_mixed_lengths_equal_single_time_calls)
    handles = [KernelHandle(JacobiParams(a, b), *kind) for kind in kinds()]
    cfg = TruncationConfig()
    cases = ([(n, [TIMES] * len(handles)) for n in LENGTHS]
             + [(None, [MIXED_TIMES, MIXED_TIMES[::-1]] * (len(handles) // 2))])
    for n, times in cases:
        together = eval_kernels(list(zip(handles, times)), THETA, PHI, cfg, n)
        assert len(together) == len(handles)
        for h, t, got in zip(handles, times, together):
            assert np.array_equal(got, h.eval_pairs(THETA, PHI, t, cfg, n)), (h, n)
            if n is not None:
                want, scale = reference(h, n, THETA, PHI, t)
                assert np.all(np.abs(got - want) <= 1e-12 * scale), (h, n)


def test_one_recurrence_per_parameters_and_start_degree(monkeypatch):
    # the odd chains of orders 1-3 read the odd companions (at alpha+1,
    # beta+1, from degree 0) on both sides; the odd ladder orders read the
    # polynomials from degree 1, and the direct ones' first-order tail the
    # derivative at alpha+2, beta+2 from degree -1
    built = []

    class Counted(basis.JacobiRecurrence):
        def __init__(self, params, x, degree, gamma):
            built.append((params, degree))
            super().__init__(params, x, degree, gamma)

    monkeypatch.setattr(basis, "JacobiRecurrence", Counted)
    p = JacobiParams(1.5, -0.7)
    odd = poisson_kernel(p, "odd")
    jobs = [(kernel_derivative(odd, N, 0, route=route), TIMES)
            for N in (1, 2, 3) for route in ("ladder", "direct")]
    eval_kernels(jobs, THETA, PHI)
    assert sorted(built, key=str) == sorted(
        [(p.shifted(1), 0), (p, 1), (p.shifted(2), -1)], key=str)


def test_memory_bounded_by_chunk_not_series_length():
    p = JacobiParams(1.5, -0.7)
    h = poisson_kernel(p, "even")
    rng = np.random.default_rng(3)
    theta = rng.uniform(0.01, math.pi - 0.01, 720)
    phi = rng.uniform(0.01, math.pi - 0.01, 720)
    t = 5e-3
    n = TruncationConfig().series_length(p, t, h.orders)
    table_bytes = n * theta.size * 8
    assert table_bytes > 60e6
    tracemalloc.start()
    try:
        h.eval_pairs(theta, phi, [t])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table_bytes / 8, (peak, table_bytes)


def test_memory_of_a_pass_bounded_by_its_window():
    # one pass of two runs, (alpha, beta) from degree 0 on theta and phi and
    # (alpha+1, beta+1) from degree -1 on theta, in a window of chunk rows and
    # 3 x pairs columns. A buffer per run beside it, or one per window, doubles
    # the peak
    p = JacobiParams(1.5, -0.7)
    rng = np.random.default_rng(5)
    theta, phi = rng.uniform(0.01, math.pi - 0.01, (2, 720))
    even = poisson_kernel(p, "even")
    jobs = [(even, [0.02]), (kernel_derivative(even, 1, 0), [0.02])]
    window = _CHUNK * 3 * theta.size * 8
    tracemalloc.start()
    try:
        eval_kernels(jobs, theta, phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert window < peak < 2 * window, (peak, window)
