"""The streamed kernel series against a reference built outside the package.

The reference sums each series term by term from Jacobi polynomial values
computed as scipy.special.eval_jacobi computes them, and the closed-form
Gamma norms, with every factor spelled out from its definition; nothing
here comes from trigjacobi.basis. Series lengths are forced through a
FixedLength truncation just below, at and above one chunk of the engine, and
across several chunks.
"""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.special import binom, eval_jacobi, gammaln

from trigjacobi import basis
from trigjacobi.basis import JacobiParams
from trigjacobi import kernels
from trigjacobi.kernels import (
    _CHUNK,
    _WINDOW_BYTES,
    KernelHandle,
    TruncationConfig,
    eval_kernels,
    kernel_derivative,
    poisson_kernel,
    symmetrized_kernel_pairs,
)

PARAMS = [(0.0, 0.0), (1.5, -0.7), (-0.7, -0.6)]
LENGTHS = [_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 17]
TIMES = np.array([0.02, 0.3])
THETA = np.array([0.05, 0.7, 1.6, 2.4, 3.1])
PHI = np.array([1.9, 0.3, 1.55, 3.05, 0.02])
# lengths from tens of terms to several chunks, in no particular order
MIXED_TIMES = np.array([0.4, 0.01, 3.0, 0.05, 0.01, 1.0])


@dataclass(frozen=True, kw_only=True)
class FixedLength(TruncationConfig):
    """A truncation that sums n terms of every series, at every time."""

    n: int

    def series_length(self, params, t, orders):
        return self.n


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
        got = h.eval_pairs(THETA, PHI, TIMES, FixedLength(n=n))
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
    cases = ([(n, [TIMES] * len(handles)) for n in LENGTHS]
             + [(None, [MIXED_TIMES, MIXED_TIMES[::-1]] * (len(handles) // 2))])
    for n, times in cases:
        cfg = TruncationConfig() if n is None else FixedLength(n=n)
        together = eval_kernels(list(zip(handles, times)), THETA, PHI, cfg)
        assert len(together) == len(handles)
        for h, t, got in zip(handles, times, together):
            assert np.array_equal(got, h.eval_pairs(THETA, PHI, t, cfg)), (h, n)
            if n is not None:
                want, scale = reference(h, n, THETA, PHI, t)
                assert np.all(np.abs(got - want) <= 1e-12 * scale), (h, n)


def test_one_recurrence_per_parameters_and_start_degree(monkeypatch):
    # the odd chains of orders 1-3 read the odd companions (at alpha+1,
    # beta+1, from degree 0) on both sides; the odd ladder orders read the
    # polynomials from degree 1, and the direct ones' first-order tail the
    # derivative at alpha+2, beta+2 from degree -1
    built, begin = [], basis._Run.begin

    def counted(run, x, gamma):
        built.append((run.params, run.start))
        return begin(run, x, gamma)

    monkeypatch.setattr(basis._Run, "begin", counted)
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
    # (alpha+1, beta+1) from degree -1 on theta, in a window of 3 x pairs
    # columns and as many rows as the byte budget allows over the call's
    # theta, phi and product columns: 121 at 720 pairs. Its two jobs read
    # different rows, so their product has a buffer of its own, a third of
    # the window. A buffer per run beside it, or one per window, doubles
    # the peak
    p = JacobiParams(1.5, -0.7)
    rng = np.random.default_rng(5)
    theta, phi = rng.uniform(0.01, math.pi - 0.01, (2, 720))
    even = poisson_kernel(p, "even")
    jobs = [(even, [0.02]), (kernel_derivative(even, 1, 0), [0.02])]
    rows = _WINDOW_BYTES // (8 * 3 * theta.size)
    assert rows == 121
    window = rows * 3 * theta.size * 8
    tracemalloc.start()
    try:
        eval_kernels(jobs, theta, phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert window < peak < 2 * window, (peak, window)


def test_summed_factors_share_one_buffer_per_side():
    # six direct-route odd chains, whose theta factors sum two terms each,
    # read one pass of three runs ((alpha+1, beta+1) from degree 0 on theta
    # and phi, (alpha+2, beta+2) from degree -1 on theta): a window of 3 x
    # pairs columns, and a third of it each for the product, the call's one
    # theta sum and the plan's scratch, two windows in all; measured 2.22. A
    # sum buffer per job adds a third of a window per job, 3.89 windows
    p = JacobiParams(1.5, -0.7)
    rng = np.random.default_rng(5)
    theta, phi = rng.uniform(0.01, math.pi - 0.01, (2, 720))
    odd = poisson_kernel(p, "odd")
    handles = [kernel_derivative(odd, N, M, "direct") for N in (1, 3) for M in (0, 1, 2)]
    window = _WINDOW_BYTES // (8 * 3 * theta.size) * 3 * theta.size * 8
    tracemalloc.start()
    try:
        together = eval_kernels([(h, [0.1]) for h in handles], theta, phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 2 * window < peak < 2.5 * window, (peak, window)
    # the shared buffers keep every job's samples bit for bit
    for h, got in zip(handles, together):
        assert np.array_equal(got, h.eval_pairs(theta, phi, [0.1]))


@pytest.mark.parametrize("ab", [(1.5, -0.7), (-0.7, -0.6)])
def test_lone_job_forms_its_product_in_the_window(ab):
    # each component of the symmetrized kernel is a lone job on raw rows, a
    # pass of its own, so the product of its factors is written over its
    # window's theta rows: the peak stays below window plus a product buffer,
    # 87 rows over the 3 x 1000 columns the budget counts. A product buffer
    # beside the window, or the even pass's window still alive in the odd
    # pass, lifts the peak above it
    rng = np.random.default_rng(7)
    theta, phi = (rng.uniform(0.02, math.pi - 0.02, (2, 1000))
                  * rng.choice((-1.0, 1.0), (2, 1000)))
    rows = _WINDOW_BYTES // (8 * 3 * theta.size)
    assert rows == 87
    budget = rows * 3 * theta.size * 8
    tracemalloc.start()
    try:
        symmetrized_kernel_pairs(JacobiParams(*ab), theta, phi, [0.05])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget, (peak, budget)


def test_jobs_of_one_component_share_their_speeds():
    # eight kernels of the even component at (1.5, -0.7), each at its own
    # times, so with its own series length: they read prefixes of one speed
    # array and each keeps one array of its length, its weights, so
    # together they equal each alone, bit for bit, and the call's peak stays
    # below their weights and 12 arrays of the longest length (measured 9.3;
    # a speed array per job or its coefficients kept beside its weights
    # adds about 6 or 7 more)
    p = JacobiParams(1.5, -0.7)
    even = poisson_kernel(p, "even")
    handles = [even] + [kernel_derivative(even, N, M, route) for N, M, route in
                        [(1, 0, "ladder"), (0, 1, "ladder"), (2, 0, "ladder"),
                         (2, 0, "direct"), (1, 1, "ladder"), (0, 2, "ladder"),
                         (3, 0, "ladder")]]
    jobs = [(h, [5e-3 * (1.0 + 0.1 * i), 0.5]) for i, h in enumerate(handles)]
    cfg = TruncationConfig()
    lengths = [max(cfg.series_length(h.table_params, t, h.orders) for t in ts)
               for h, ts in jobs]
    assert len(set(lengths)) == len(jobs)
    tracemalloc.start()
    try:
        together = eval_kernels(jobs, THETA, PHI)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for (h, ts), got in zip(jobs, together):
        assert np.array_equal(got, h.eval_pairs(THETA, PHI, ts)), h
    assert peak < 8 * (sum(lengths) + 12 * max(lengths)), (peak, lengths)


@pytest.fixture
def chunks(monkeypatch):
    """The chunk rows of every row plan the kernels build, in order."""
    out = []

    class Recorded(basis.RowPlan):
        def __init__(self, points, chunk):
            out.append(chunk)
            super().__init__(points, chunk)

    monkeypatch.setattr(kernels, "RowPlan", Recorded)
    return out


@pytest.mark.parametrize("npairs,rows", [
    (1, 256), (270, 256), (341, 256), (342, 255), (500, 174), (1000, 87),
    (5000, 17)])
def test_chunk_rows_from_the_point_columns(chunks, npairs, rows):
    # a call of 341 pairs or fewer keeps 256 rows; a wider one as many as
    # fit 2 MiB of its theta and phi columns and the product's pair columns
    rng = np.random.default_rng(npairs)
    theta, phi = rng.uniform(0.01, math.pi - 0.01, (2, npairs))
    poisson_kernel(JacobiParams(1.5, -0.7), "even").eval_pairs(theta, phi, [2.0])
    assert chunks == [rows]


def test_matrix_on_one_grid_keeps_256_rows(chunks):
    # eval_matrix on one grid of 160 nodes reads 160 columns
    grid = np.linspace(0.01, math.pi - 0.01, 160)
    poisson_kernel(JacobiParams(1.5, -0.7), "odd").eval_matrix(grid, grid, 0.5)
    assert chunks == [_CHUNK]


def test_wide_call_equals_single_handle_calls():
    # 2000 pairs take 43-row windows (4000 columns): each job keeps its own
    # series, times and windows, so a job in the shared call equals a call
    # with it alone, bit for bit, and the windows still meet the reference
    p = JacobiParams(1.5, -0.7)
    rng = np.random.default_rng(11)
    theta, phi = rng.uniform(0.01, math.pi - 0.01, (2, 2000))
    handles = [KernelHandle(p, *kind) for kind in
               [("even",), ("odd",), ("even", 1, 0), ("odd", 1, 0, "direct"),
                ("even", 1, 0, "direct", 1, 1)]]
    times = [TIMES, TIMES[::-1]] * 2 + [TIMES]
    cfg = FixedLength(n=3 * 43 + 17)
    together = eval_kernels(list(zip(handles, times)), theta, phi, cfg)
    for h, t, got in zip(handles, times, together):
        assert np.array_equal(got, h.eval_pairs(theta, phi, t, cfg)), h
    want, scale = reference(handles[3], cfg.n, theta[:50], phi[:50], times[3])
    assert np.all(np.abs(together[3][:50] - want) <= 1e-12 * scale)


def test_an_exp_block_is_made_again_for_a_longer_series(monkeypatch):
    # series_length is not monotone in orders: at (2.5, 3.5) the odd chains
    # of orders 1 and 2 need 66 and 71 terms at t = 1 but 3 and 2 at the
    # time below. With 2-row chunks, the longer job's exp(-t speed) block at
    # terms 2-3 holds t = 1 alone, so the other job, still summing both
    # times there, makes the block again: each equals itself alone, bit for bit
    monkeypatch.setattr(kernels, "_CHUNK", 2)
    odd = poisson_kernel(JacobiParams(2.5, 3.5), "odd")
    jobs = [(kernel_derivative(odd, N, 0), [1.0, 31.528680147034354]) for N in (1, 2)]
    cfg = TruncationConfig()
    assert [[cfg.series_length(h.table_params, t, h.orders) for t in ts]
            for h, ts in jobs] == [[66, 3], [71, 2]]
    together = eval_kernels(jobs, THETA, PHI)
    for (h, ts), got in zip(jobs, together):
        assert np.array_equal(got, h.eval_pairs(THETA, PHI, ts)), h


def test_a_call_without_jobs_returns_no_samples():
    assert eval_kernels([], THETA, PHI) == []
