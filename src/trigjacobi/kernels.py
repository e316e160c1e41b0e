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
are streamed: the recurrences of one call's kernels (a basis.RowPlan) advance
a fixed chunk of terms at a time, and each chunk is added into the outputs
before the next one is built, so memory does not grow with the series
length. Nothing is cached between calls.
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
    t_floor: float = 5e-3

    def __post_init__(self):
        # NaN fails every check
        if not 0.0 < self.eps_tail < 1.0:
            raise ValueError(f"eps_tail must lie in (0, 1), got {self.eps_tail!r}")
        if not (self.t_floor > 0.0 and self.n_cap >= 1):
            raise ValueError(f"need t_floor > 0, n_cap >= 1: {self.t_floor!r}, {self.n_cap!r}")

    def series_length(self, params: JacobiParams, t: float, orders: int) -> int:
        """Smallest n with e^{-tn} (n+1)^q below eps_tail.

        q = 2 max(alpha,beta) + 2 + orders majorizes the sup growth of the
        summands including norm constants and the derivative powers of the
        eigenvalues. Solved by a fixed point of n = (q log n - log eps)/t.
        """
        if t < self.t_floor:
            raise TruncationError(
                f"t={t} is below the configured floor {self.t_floor}")
        q = max(2.0 * max(params.alpha, params.beta) + 2.0 + orders, 0.5)
        log_eps = math.log(self.eps_tail)
        n = max(-log_eps / t, 10.0)
        for _ in range(60):
            n_next = (q * math.log(n + 1.0) - log_eps) / t
            if abs(n_next - n) < 0.5:
                n = n_next
                break
            n = n_next
        n = int(math.ceil(n)) + 1
        if n > self.n_cap:
            raise TruncationError(
                f"series needs {n} terms at t={t}, cap is {self.n_cap}; "
                "raise n_cap or t")
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
        """Total derivative order and shift, used in the truncation exponent."""
        return self.shift + self.L + self.N + self.M

    @property
    def table_params(self) -> JacobiParams:
        return self.params.shifted(self.shift)

    def eval_pairs(self, theta, phi, t, cfg: TruncationConfig = DEFAULT_TRUNCATION,
                   n_override: int | None = None) -> np.ndarray:
        """Kernel samples K_t(theta_i, phi_i): shape (npairs, nt)."""
        return eval_kernels([(self, t)], theta, phi, cfg, n_override)[0]

    def eval_matrix(self, theta, phi, t: float) -> np.ndarray:
        """Full kernel matrix K_t(theta_i, phi_j) at a single time."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        plan = RowPlan((theta, phi), _CHUNK)
        stream = _Stream(plan, self, t, DEFAULT_TRUNCATION, None, {})
        d = stream.weight * np.exp(-float(t) * stream.speed)
        out = np.zeros((theta.size, phi.size))
        for k0 in range(0, stream.n, _CHUNK):
            k1 = min(k0 + _CHUNK, stream.n)
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


def _series(handle: KernelHandle, n: int) -> tuple[np.ndarray, np.ndarray]:
    """speed sqrt(lam) and coefficient of the first n terms."""
    p, N, M = handle.table_params, handle.N, handle.M
    # the odd component's term k carries eigenvalue index k + 1
    idx = np.arange(n, dtype=float) + (handle.component == "odd")
    speed = np.sqrt(eigenvalue(p, idx))
    if handle.route == "ladder":
        # sqrt(lam_k - lam_0) = sqrt(k (k + alpha + beta + 1))
        return speed, 0.5 * (-speed) ** M * (-_ladder_root(p, idx)) ** N
    # direct route: (d_t^2 - lam_0)^{N//2} d_t^M with explicit binomials,
    # never collapsed to the ladder coefficient
    k0 = N // 2
    js = np.arange(k0 + 1)
    binom = comb(k0, js) * (-p.lam0) ** (k0 - js)
    mult = np.zeros(n)
    for j, c in zip(js, binom):
        mult += c * (-speed) ** (2 * j + M)
    return speed, 0.5 * mult


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


# series terms evaluated together; bounds the working memory at
# _CHUNK x (points) per recurrence, whatever the series length
_CHUNK = 256


class _Stream:
    """One kernel's series at its times, read from a RowPlan over (theta, phi)
    that other kernels may share.

    Each t pays only for the series length its own bound demands: times are
    sorted longest series first, so those still summing form a prefix. A
    single-term factor is handed out as the plan's raw rows, its scale folded
    into `weight` and its pi into `theta_scale` / `phi_scale`; the plan sums a
    factor of several terms into the stream's buffer per chunk; `rows_key`
    names the raw rows of a stream whose factors are both single terms.
    """

    def __init__(self, plan: RowPlan, handle: KernelHandle, t, cfg: TruncationConfig,
                 n_override: int | None, known: dict):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if n_override is not None:
            lengths = np.full(t.shape, int(n_override))
        else:  # `known` holds a call's series lengths by (parameters, t, orders)
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
        self._sums = [None if len(terms) == 1 else np.empty((_CHUNK, plan.points[s].size))
                      for s, (terms, _) in enumerate(sides)]
        self.rows_key = None if any(b is not None for b in self._sums) else tuple(
            (id(runs[0]), where) for runs, where, *_ in self._factors)
        self.theta_scale, self.phi_scale = (terms[0].pi if len(terms) == 1 else 1.0
                                            for terms, _ in sides)
        self.speed, self._coef = _series(handle, n)
        self.out = np.zeros((t.size, plan.points[0].size))

    @cached_property
    def weight(self) -> np.ndarray:
        """The series coefficients times the single-term factors' scales; read
        once the plan holds every stream's factors."""
        weight = np.ones(self.n)
        for factor, buf in zip(self._factors, self._sums):
            if buf is None:
                weight *= self._plan.scales(factor, 0, self.n)[0]
        return self._coef * weight

    def factors(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The first m rows of the theta and the phi factor in the plan's window."""
        th, ph = (self._plan.rows(factor, m)[0] if buf is None
                  else self._plan.sum(factor, m, buf)
                  for factor, buf in zip(self._factors, self._sums))
        return th, ph

    def add(self, k0: int, k1: int, A: np.ndarray) -> None:
        """Add terms k0..k1-1 to the samples on the pairs; A is the product
        of their factors, self.decay (see _Decay) holds their exp(-t speed)."""
        live, m = int(np.count_nonzero(self.lengths > k0)), k1 - k0
        E = self.decay.scratch[:live * m].reshape(live, m)
        np.multiply(self.decay.block(k0)[:live, :m], self.weight[k0:k1], out=E)
        for i in np.nonzero(self.lengths[:live] < k1)[0]:
            E[i, self.lengths[i] - k0:] = 0.0
        self.out[:live] += E @ A

    def result(self) -> np.ndarray:
        out, self.out = self.out, None  # so a call holds one stream's buffer at a time
        out *= self.theta_scale * self.phi_scale
        return out[np.argsort(self.order)].T


class _Decay:
    """exp(-t speed) of a stream, a block per chunk, which the streams with the
    same sorted times and speeds and no longer series at any time read too."""

    def __init__(self, s: _Stream):
        self.t, self.speed, self.lengths, self.k0 = s.t, s.speed, s.lengths, -1
        self.buf, self.scratch = np.empty((2, s.t.size * _CHUNK))

    def takes(self, s: _Stream) -> bool:
        return (np.array_equal(self.t, s.t) and bool(np.all(self.lengths >= s.lengths))
                and np.array_equal(self.speed[:s.n], s.speed))

    def block(self, k0: int) -> np.ndarray:
        if self.k0 != k0:
            live = int(np.count_nonzero(self.lengths > k0))
            m = min(k0 + _CHUNK, self.speed.size) - k0
            self.k0, self.X = k0, self.buf[:live * m].reshape(live, m)
            np.exp(np.multiply(self.t[:live, None], -self.speed[k0:k0 + m], out=self.X),
                   out=self.X)
        return self.X


def eval_kernels(jobs, theta, phi, cfg: TruncationConfig = DEFAULT_TRUNCATION,
                 n_override: int | None = None) -> list[np.ndarray]:
    """Samples K_t(theta_i, phi_i) of several kernels on the same pairs: one
    (npairs, nt) array per (handle, t) job.

    The jobs read one basis.RowPlan, so each recurrence runs once; jobs that
    share recurrences take one pass of chunks together, the others a pass
    each, which keeps a pass's rows in cache. In a chunk, jobs with the same
    sorted times and speeds share one exp(-t speed) block, and jobs on the
    same raw rows one product of their factors. Each job keeps its own series,
    times and chunk windows: its samples equal a call with it alone, bit for bit.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    if theta.shape != phi.shape:
        raise ValueError("theta and phi must pair up")
    plan = RowPlan((theta, phi), _CHUNK)
    known = {}
    streams = [_Stream(plan, handle, t, cfg, n_override, known) for handle, t in jobs]
    passes = []  # (recurrences, jobs reading them)
    for s in streams:
        link = [p for p in passes if p[0] & s.runs]
        passes = [p for p in passes if not p[0] & s.runs]
        passes.append((s.runs.union(*(p[0] for p in link)), sum((p[1] for p in link), [s])))
    decays = []
    for s in sorted(streams, key=lambda s: -s.n):
        s.decay = next((g for g in decays if g.takes(s)), None)
        if s.decay is None:
            s.decay = _Decay(s)
            decays.append(s.decay)
    prod = np.empty((_CHUNK, theta.size))
    for runs, group in passes:
        # jobs on the same rows next to each other, the longest first
        group.sort(key=lambda s: (s.rows_key is None, s.rows_key or (), -s.n))
        n_max = max(s.n for s in group)
        for k0 in range(0, n_max, _CHUNK):
            plan.advance(k0, min(k0 + _CHUNK, n_max), runs)
            last = None
            for s in (s for s in group if s.n > k0):
                k1 = min(k0 + _CHUNK, s.n)
                if s.rows_key is None or s.rows_key != last:
                    A, last = np.multiply(*s.factors(k1 - k0), out=prod[:k1 - k0]), s.rows_key
                s.add(k0, k1, A[:k1 - k0])
    return [s.result() for s in streams]


def symmetrized_kernel_pairs(params: JacobiParams, theta, phi, t,
                             cfg: TruncationConfig = DEFAULT_TRUNCATION) -> np.ndarray:
    """The full symmetrized kernel on (-pi,pi)^2 through its parity parts:
    even in each variable plus sign(theta phi) times the odd part."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    at, ap = np.abs(theta), np.abs(phi)
    sign = np.sign(theta) * np.sign(phi)
    even, odd = eval_kernels([(poisson_kernel(params, c), t) for c in COMPONENTS],
                             at, ap, cfg)
    return even + sign[:, None] * odd
