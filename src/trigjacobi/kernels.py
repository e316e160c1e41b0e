"""Semigroup kernels on (0,pi)^2 and everything built from them.

Every kernel here is a spectral series sum_k coef(k) e^{-t speed(k)}
thetafac_k(theta) phifac_k(phi). The even component pairs the trigonometric
polynomials with weights e^{-t sqrt(lam_k)}; the odd component pairs the
sine-carrying companions s_k with e^{-t sqrt(lam_{k+1})}. A KernelHandle
describes every kernel by one set of fields: component, chain order N,
t-order M, phi order L, parameter shift and route. It has two genuinely
different evaluation routes (term-wise ladder factors vs t-derivatives with
a pointwise first-order tail), which the tests compare. The Poisson kernel
is the ladder chain of order 0; a size-lemma partial derivative is the
direct route on the even component at shifted parameters, with phi order L.

Series are truncated adaptively: the tail bound e^{-tn} n^q < eps_tail with
q covering both the polynomial sup growth and the derivative powers. They
are streamed: the recurrences of one call's kernels (a basis.RowPlan, which
owns the window of rows and the factor sums it hands out) advance a chunk of
terms at a time, as many as fit a fixed byte budget (see _plan), and each
chunk is added into the outputs before the next is built. O(series
length) are one speed array per (parameters, component) of a call, each
job's weights, and the plan's gamma and norm scales: 2.6 of the 5.8 MB
tracemalloc peak of the quick sweep's one call at (0, 0), against 0.9 MB of
window. Nothing is cached between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import comb

from .basis import (JacobiParams, RowPlan, _ladder_root, coeff_A, eigenvalue,
                    theta_row_terms)

COMPONENTS = ("even", "odd")


class TruncationError(ValueError):
    """The requested accuracy needs more terms than the configured cap."""


@dataclass(frozen=True)
class TruncationConfig:
    eps_tail: float = 1e-10
    n_cap: int = 65536

    def __post_init__(self):
        # NaN fails every check
        if not 0.0 < self.eps_tail < 1.0:
            raise ValueError(f"eps_tail must lie in (0, 1), got {self.eps_tail!r}")
        if not self.n_cap >= 1:
            raise ValueError(f"need n_cap >= 1, got {self.n_cap!r}")

    def series_length(self, params: JacobiParams, t: float, orders: int) -> int:
        """A series length n with e^{-tn} (n+1)^q below eps_tail.

        q = 2 max(alpha,beta) + 2 + orders majorizes the sup growth of the
        summands including norm constants and the derivative powers of the
        eigenvalues. n is the ceiling of the fixed point of
        n = (q log(n+1) - log eps)/t, iterated from max(-log eps / t, 10)
        until a step moves it less than 1/2, plus one. It meets the bound
        but is neither the smallest such n nor monotone in orders or t: at
        (2.5, 3.5) and t = 31.528680147034354, orders 0 to 4 read 2, 3, 2,
        3, 3, where n = 1 meets the bound for orders 0 to 3.
        n_cap is the only limit on t: a series that needs more terms raises
        TruncationError, before the iteration already where t n_cap <= -log
        eps, as e^{-tn} alone stays above eps_tail through n_cap there.
        """
        if not 0.0 < t < math.inf:  # NaN fails too
            raise ValueError(f"t must be positive and finite, got {float(t)!r}")
        log_eps = math.log(self.eps_tail)
        if t * self.n_cap <= -log_eps:
            raise TruncationError(
                f"series needs more than n_cap={self.n_cap} terms at t={t}; "
                "raise t, eps_tail or n_cap")
        q = max(2.0 * max(params.alpha, params.beta) + 2.0 + orders, 0.5)
        n = max(-log_eps / t, 10.0)
        for _ in range(60):
            n, n_prev = (q * math.log(n + 1.0) - log_eps) / t, n
            if abs(n - n_prev) < 0.5:
                break
        n = int(math.ceil(n)) + 1
        if n > self.n_cap:
            raise TruncationError(
                f"series needs {n} terms at t={t}, more than "
                f"n_cap={self.n_cap}; raise t, eps_tail or n_cap")
        return n


DEFAULT_TRUNCATION = TruncationConfig()


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite atomic measure sum_j weight_j * delta_{t_j} on (0, infinity)."""

    times: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.times) != len(self.weights) or not self.times:
            raise ValueError("need matching, nonempty times and weights")
        if not all(t > 0.0 for t in self.times):
            raise ValueError("atoms must sit at positive times")
        if not all(math.isfinite(w) for w in self.weights):
            raise ValueError("weights must be finite")


# --- kernel descriptions -----------------------------------------------------

@dataclass(frozen=True)
class KernelHandle:
    """One kernel: d_phi^L, a chain of order N in theta and M t-derivatives of
    a semigroup kernel component at parameters shifted by `shift`, by one of
    two routes. Evaluated by eval_pairs/eval_matrix/eval_kernels."""

    params: JacobiParams
    component: str
    N: int = 0
    M: int = 0
    route: str = "ladder"
    shift: int = 0
    L: int = 0

    @property
    def orders(self) -> int:
        """Total derivative order, used in the truncation exponent; the shift
        enters it through table_params."""
        return self.L + self.N + self.M

    @property
    def table_params(self) -> JacobiParams:
        return self.params.shifted(self.shift)

    def eval_pairs(self, theta, phi, t, cfg: TruncationConfig = DEFAULT_TRUNCATION) -> np.ndarray:
        """Kernel samples K_t(theta_i, phi_i): shape (npairs, nt)."""
        return eval_kernels([(self, t)], theta, phi, cfg)[0]

    def eval_matrix(self, theta, phi, t: float) -> np.ndarray:
        """Full kernel matrix K_t(theta_i, phi_j) at a single time."""
        plan = _plan(theta, phi)
        theta, phi = plan.points
        stream = _Stream(plan, self, t, DEFAULT_TRUNCATION, {})
        d = stream.weight * np.exp(-float(t) * stream.speed)
        out = np.zeros((theta.size, phi.size))
        for k0 in range(0, stream.n, plan.chunk):
            k1 = min(k0 + plan.chunk, stream.n)
            plan.advance(k0, k1)
            th, ph = stream.factors(k1 - k0)
            out += (th * d[k0:k1, None]).T @ ph
        out *= np.reshape(stream.theta_scale, (-1, 1))
        out *= stream.phi_scale
        return out


def poisson_kernel(params: JacobiParams, component: str) -> KernelHandle:
    """The even or odd component of the symmetrized semigroup kernel,
    as a function on (0,pi)^2: the chain of order 0."""
    if component not in COMPONENTS:
        raise ValueError(f"component must be one of {COMPONENTS}")
    return KernelHandle(params, component)


def kernel_derivative(handle: KernelHandle, N: int, M: int,
                      route: str = "ladder") -> KernelHandle:
    """The N-th interlaced first-order chain and M t-derivatives applied to a
    semigroup kernel component (chain in theta, even chain on the even
    component, odd chain on the odd one).

    route "ladder": term-wise closed form through the ladder factors.
    route "direct": N = 2k + tail as (d_t^2 - lam_0)^k with binomial assembly,
    odd tails applied as pointwise first-order operators on the theta factor.
    """
    if handle != KernelHandle(handle.params, handle.component):
        raise ValueError("derivatives start from a semigroup kernel")
    if N < 0 or M < 0 or (N == 0 and M == 0):
        raise ValueError("need N, M >= 0 with N + M > 0")
    if route not in ("ladder", "direct"):
        raise ValueError("route must be 'ladder' or 'direct'")
    return KernelHandle(handle.params, handle.component, N, M, route)


def partial_derivative_kernel(params: JacobiParams, shift: int,
                              L: int, N: int, M: int) -> KernelHandle:
    """Plain partial derivatives d_phi^L d_theta^N d_t^M of the even semigroup
    kernel with parameters shifted by `shift`. This is the exact shape of the
    size-lemma left-hand sides: the direct route, which for N <= 1 is d_theta^N
    on the polynomials, at the shifted parameters."""
    if shift < 0 or L < 0 or N < 0 or M < 0:
        raise ValueError("orders must be nonnegative")
    if L > 1 or N > 1:
        raise ValueError("spatial orders above 1 are not needed and not built")
    return KernelHandle(params, "even", N, M, "direct", shift, L)


def _coef(handle: KernelHandle, speed: np.ndarray) -> np.ndarray:
    """The coefficients of the first speed.size terms, at their speeds."""
    p, N, M = handle.table_params, handle.N, handle.M
    if handle.route == "ladder":
        # sqrt(lam_k - lam_0) = sqrt(k (k + alpha + beta + 1))
        idx = np.arange(speed.size, dtype=float) + (handle.component == "odd")
        return 0.5 * (-speed) ** M * (-_ladder_root(p, idx)) ** N
    # direct route: (d_t^2 - lam_0)^{N//2} d_t^M with explicit binomials,
    # never collapsed to the ladder coefficient
    k0 = N // 2
    js = np.arange(k0 + 1)
    binom = comb(k0, js) * (-p.lam0) ** (k0 - js)
    mult = np.zeros(speed.size)
    for j, c in zip(js, binom):
        mult += c * (-speed) ** (2 * j + M)
    return 0.5 * mult


def _sides(handle: KernelHandle, theta: np.ndarray, phi: np.ndarray) -> tuple:
    """The theta and the phi factor of the series, each (RowTerms, offset):
    term k is row k + offset of the sum of the RowTerms (see
    basis.theta_row_terms)."""
    p, odd = handle.table_params, handle.component == "odd"
    if handle.N % 2 == 0:
        weights, theta_odd, offset = {0: 1.0}, odd, 0
    elif handle.route == "ladder":
        # odd chains land on the other component: the odd companions at
        # index k-1 (empty at k=0), or the polynomials at index k+1
        weights, theta_odd, offset = {0: 1.0}, not odd, 1 if odd else -1
    elif not odd:
        weights, theta_odd, offset = {1: 1.0}, False, 0
    else:
        # first-order tail -d_theta - A on the odd companions
        weights, theta_odd, offset = {1: -1.0, 0: -coeff_A(p, theta)}, True, 0
    return ((theta_row_terms(p, theta, weights, theta_odd), offset),
            (theta_row_terms(p, phi, {handle.L: 1.0}, odd), 0))


# series terms evaluated together: at most _CHUNK, and as many float64 rows as
# fit _WINDOW_BYTES over a call's theta and phi columns and the pair columns of
# its factor product (at least one), so a lone kernel on raw rows keeps window
# and product within 2 MiB; a call on up to 341 pairs keeps all 256 rows
_CHUNK = 256
_WINDOW_BYTES = 2 ** 21


def _plan(theta, phi) -> RowPlan:
    """The row plan of theta and phi as float arrays, in chunks sized by their columns."""
    theta, phi = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (theta, phi))
    rows = _WINDOW_BYTES // (8 * max(1, theta.size + phi.size + theta.size))
    return RowPlan((theta, phi), max(1, min(_CHUNK, rows)))


class _Stream:
    """One kernel's series at its times, read from a RowPlan over (theta, phi)
    that other kernels may share.

    Each t pays only for the series length its own bound demands: times are
    sorted longest series first, so those still summing form a prefix. A
    single-term factor is handed out as the plan's raw rows, its scale folded
    into `weight` and its pi into `theta_scale` / `phi_scale`; the plan sums a
    factor of several terms per chunk into its buffer for the factor's side
    (`_summed`), which the next job's sum reuses once the product is formed;
    `rows_key` names the raw rows of a stream whose factors are both single
    terms, `key`, its (table parameters, component), its speeds, and
    `times_key`, that key and its sorted times, its exp(-t speed) blocks.
    """

    def __init__(self, plan: RowPlan, handle: KernelHandle, t, cfg: TruncationConfig,
                 known: dict):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if not t.size:
            raise ValueError("a kernel needs at least one time t")
        # `known` holds a call's series lengths by (parameters, t, orders)
        keys = [(handle.table_params, ti, handle.orders) for ti in t]
        for key in keys:
            if key not in known:
                known[key] = cfg.series_length(*key)
        lengths = np.array([known[key] for key in keys])
        self.order = np.argsort(-lengths, kind="stable")
        self.t, self.lengths = t[self.order], lengths[self.order]
        self.n = n = int(self.lengths[0])
        self._plan, sides = plan, _sides(handle, *plan.points)
        self._factors = [plan.add(terms, n, s, offset)
                         for s, (terms, offset) in enumerate(sides)]
        self.runs = {run for runs, *_ in self._factors for run in runs}
        self._summed = [len(terms) > 1 for terms, _ in sides]
        self.rows_key = None if any(self._summed) else tuple(
            (id(runs[0]), where) for runs, where, *_ in self._factors)
        self.theta_scale, self.phi_scale = (terms[0].pi if len(terms) == 1 else 1.0
                                            for terms, _ in sides)
        self.handle, self.key = handle, (handle.table_params, handle.component)
        self.times_key = (self.key, self.t.tobytes())
        self.out = np.zeros((t.size, plan.points[0].size))

    @cached_property
    def speed(self) -> np.ndarray:
        """sqrt(lam) of its n terms, the odd component's term k at index k + 1;
        eval_kernels sets a prefix of its key's longest job's speeds instead."""
        p, component = self.key
        return np.sqrt(eigenvalue(p, np.arange(self.n, dtype=float) + (component == "odd")))

    @cached_property
    def weight(self) -> np.ndarray:
        """The series coefficients times the single-term factors' scales; read
        once the plan holds every stream's factors and `speed` is set."""
        weight = np.ones(self.n)
        for factor, summed in zip(self._factors, self._summed):
            if not summed:
                weight *= self._plan.scales(factor, 0, self.n)[0]
        return np.multiply(weight, _coef(self.handle, self.speed), out=weight)

    def factors(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The first m rows of the theta and the phi factor in the plan's window."""
        return tuple(self._plan.sum(factor, m) if summed else self._plan.rows(factor, m)[0]
                     for factor, summed in zip(self._factors, self._summed))

    def add(self, k0: int, k1: int, A: np.ndarray, blocks: dict,
            scratch: np.ndarray) -> None:
        """Add terms k0..k1-1 to the samples on the pairs; A is the product
        of their factors. `blocks` holds the chunk's exp(-t speed) by
        times_key; one with fewer live times or terms than this job sums is
        made again, as series_length is not monotone in orders (at (2.5, 3.5)
        the odd chains of orders 1 and 2 need 66 and 71 terms at t = 1 but 3
        and 2 at t = 31.53). The weighted block is formed in `scratch`."""
        live, m = int(np.count_nonzero(self.lengths > k0)), k1 - k0
        X = blocks.get(self.times_key)
        if X is None or X.shape[0] < live or X.shape[1] < m:
            X = blocks[self.times_key] = np.exp(np.multiply(self.t[:live, None],
                                                            -self.speed[k0:k1]))
        E = scratch[:live * m].reshape(live, m)
        np.multiply(X[:live, :m], self.weight[k0:k1], out=E)
        for i in np.nonzero(self.lengths[:live] < k1)[0]:
            E[i, self.lengths[i] - k0:] = 0.0
        self.out[:live] += E @ A

    def result(self) -> np.ndarray:
        out, self.out = self.out, None  # so a call holds one stream's buffer at a time
        out *= self.theta_scale * self.phi_scale
        return out[np.argsort(self.order)].T


def eval_kernels(jobs, theta, phi,
                 cfg: TruncationConfig = DEFAULT_TRUNCATION) -> list[np.ndarray]:
    """Samples K_t(theta_i, phi_i) of several kernels on the same pairs: one
    (npairs, nt) array per (handle, t) job.

    The jobs read one basis.RowPlan, so each recurrence runs once; jobs that
    share recurrences take one pass of chunks together, the others a pass
    each, which keeps a pass's rows in cache. In a chunk, jobs of one key
    and sorted times share one exp(-t speed) block through the chunk's dict
    of blocks, and jobs on the same raw rows one product of their factors,
    which a pass of one such job writes over its window's theta rows; each
    job weights its block into the call's one scratch. Each job keeps its
    own series, times and chunk windows: its samples equal a call with it
    alone, bit for bit.
    """
    plan, known = _plan(theta, phi), {}
    theta, phi = plan.points
    if theta.shape != phi.shape:
        raise ValueError("theta and phi must pair up")
    streams = [_Stream(plan, handle, t, cfg, known) for handle, t in jobs]
    passes = []  # (recurrences, jobs reading them)
    for s in streams:
        link = [p for p in passes if p[0] & s.runs]
        passes = [p for p in passes if not p[0] & s.runs]
        passes.append((s.runs.union(*(p[0] for p in link)), sum((p[1] for p in link), [s])))
    speeds = {}
    for s in sorted(streams, key=lambda s: -s.n):
        if s.key not in speeds:  # the longest job of each key first
            speeds[s.key] = s.speed
        s.speed = speeds[s.key][:s.n]
    chunk = plan.chunk
    scratch = np.empty(max((s.t.size for s in streams), default=0) * chunk)
    alone = [len(group) == 1 and group[0].rows_key is not None for _, group in passes]
    prod = None if all(alone) else np.empty((chunk, theta.size))
    for (runs, group), in_place in zip(passes, alone):
        # jobs on the same rows next to each other, the longest first
        group.sort(key=lambda s: (s.rows_key is None, s.rows_key or (), -s.n))
        n_max = max(s.n for s in group)
        for k0 in range(0, n_max, chunk):
            plan.advance(k0, min(k0 + chunk, n_max), runs)
            last, blocks = None, {}
            for s in (s for s in group if s.n > k0):
                k1 = min(k0 + chunk, s.n)
                if s.rows_key is None or s.rows_key != last:
                    th, ph = s.factors(k1 - k0)
                    A = np.multiply(th, ph, out=th if in_place else prod[:k1 - k0])
                    last = s.rows_key
                s.add(k0, k1, A[:k1 - k0], blocks, scratch)
        th = ph = A = None  # so the next pass's window replaces this one's
    return [s.result() for s in streams]


def symmetrized_kernel_pairs(params: JacobiParams, theta, phi, t,
                             cfg: TruncationConfig = DEFAULT_TRUNCATION) -> np.ndarray:
    """The full symmetrized kernel on (-pi,pi)^2 through its parity parts:
    even in each variable plus sign(theta phi) times the odd part."""
    even, odd = eval_kernels([(poisson_kernel(params, c), t) for c in COMPONENTS],
                             np.abs(theta), np.abs(phi), cfg)
    return even + np.reshape(np.sign(theta) * np.sign(phi), (-1, 1)) * odd
