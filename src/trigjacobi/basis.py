"""Trigonometric Jacobi bases and their first-order ladder structure.

Everything here lives on the trigonometric side of the substitution x = cos(theta):
normalized polynomials P_n(theta) on (0,pi), Lebesgue-orthonormal functions
phi_n = psi * P_n, and the symmetrized systems Phi_n (polynomial type) and
Theta_n = psi * Phi_n (function type) on (-pi,pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

TRIG_POLY = "trig_poly"
JACOBI_FN = "jacobi_fn"
SYM_POLY = "sym_poly"
SYM_FN = "sym_fn"

KINDS = (TRIG_POLY, JACOBI_FN, SYM_POLY, SYM_FN)


@dataclass(frozen=True)
class JacobiParams:
    """Type parameters (alpha, beta), both > -1."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > -1 and self.beta > -1):
            raise ValueError(
                f"need alpha > -1 and beta > -1, got ({self.alpha}, {self.beta})"
            )

    def shifted(self, k: float) -> "JacobiParams":
        if k < 0:
            raise ValueError("parameter shift must be nonnegative")
        if k == 0:
            return self
        return JacobiParams(self.alpha + k, self.beta + k)

    @property
    def lam0(self) -> float:
        """Bottom eigenvalue ((alpha+beta+1)/2)^2; zero iff alpha+beta = -1."""
        return ((self.alpha + self.beta + 1.0) / 2.0) ** 2


def eigenvalue(params: JacobiParams, n) -> float | np.ndarray:
    """n-th eigenvalue (n + (alpha+beta+1)/2)^2."""
    half = (params.alpha + params.beta + 1.0) / 2.0
    h = (np.asarray(n, dtype=float) if np.ndim(n) else float(n)) + half
    return h * h  # a product, not pow, so scalars and arrays round alike


def half_index(n: int) -> int:
    """<n> = floor((n+1)/2): index of the eigenvalue attached to Phi_n."""
    return (n + 1) // 2


def psi(params: JacobiParams, theta) -> np.ndarray:
    """Weight factor |sin(t/2)|^(alpha+1/2) * cos(t/2)^(beta+1/2) on (-pi,pi)."""
    theta = np.asarray(theta, dtype=float)
    if (np.abs(theta) >= np.pi).any():
        raise ValueError("psi is defined for |theta| < pi")
    return _half_angle_power(theta, params.alpha + 0.5, params.beta + 0.5)


def _half_angle_power(theta, r, s) -> np.ndarray:
    """|sin(theta/2)|^r * cos(theta/2)^s, elementwise; r and s may be arrays."""
    theta = np.asarray(theta, dtype=float)
    return np.abs(np.sin(theta / 2.0)) ** r * np.cos(theta / 2.0) ** s


def log_norm_constant(params: JacobiParams, n) -> np.ndarray:
    """log of c_n normalizing c_n P_n(cos .) in L2(dmu+).

    The n = 0 branch uses Gamma(alpha+beta+2) directly, which stays finite in
    the degenerate case alpha+beta = -1 where the generic formula has a 0*inf
    ambiguity; the generic formula is read at n >= 1 only.
    """
    a, b = params.alpha, params.beta
    n = np.asarray(n, dtype=float)
    m = np.maximum(n, 1.0)
    generic = 0.5 * (
        np.log(2.0 * m + a + b + 1.0)
        + gammaln(m + 1.0)
        + gammaln(m + a + b + 1.0)
        - gammaln(m + a + 1.0)
        - gammaln(m + b + 1.0)
    )
    g = gammaln([a + b + 2.0, a + 1.0, b + 1.0])
    return np.where(n == 0, 0.5 * (g[0] - g[1] - g[2]), generic)


def _gamma(a: float, b: float, m: int) -> np.ndarray:
    """gamma_n for n < m (or m + 1, so the degrees come in pairs).

    P_n = (A_n x + B_n) P_{n-1} - C_n P_{n-2} becomes, with P_n = gamma_n Q_n,
    gamma_0 = gamma_1 = 1 and gamma_n = C_n gamma_{n-2} (a running product over
    each parity, one rounding a step), Q_n = (A'_n x + B'_n) Q_{n-1} - Q_{n-2}
    with A'_n = A_n gamma_{n-1}/gamma_n and B'_n likewise (see _steps). Here
    C_n = (n+a-1) (n+b-1) s / ((s-2) n (n+a+b)), with s = 2n + a + b, is > 0
    for every n >= 2 when alpha, beta > -1. Every value depends on n only,
    not on m; the work holds two arrays besides gamma.
    """
    m = max(m + m % 2, 2)
    gamma = np.ones(m)
    n = np.arange(2.0, m)
    C = np.add(n, a - 1.0, out=gamma[2:])
    t = n + (b - 1.0)
    C *= t
    np.multiply(n, 2.0, out=t)
    t += a + b  # s
    C *= t
    t -= 2.0
    t *= n
    n += a + b
    t *= n  # (s-2) n (n+a+b)
    C /= t
    pairs = gamma.reshape(-1, 2)  # column 0 the even degrees, column 1 the odd
    np.multiply.accumulate(pairs, axis=0, out=pairs)
    return gamma


def _steps(a: float, b: float, gamma: np.ndarray, k: int, m: int) -> np.ndarray:
    """(A'_n, B'_n) for n = k..k+m-1, k >= 2, as rows of one (2, m) array:
    A_n = (s-1) s / 2d and B_n = (s-1) (a^2 - b^2) / (2d (s-2)), each times
    gamma_{n-1}/gamma_n (see _gamma)."""
    n = np.arange(k, k + m, dtype=float)
    s = 2.0 * n + (a + b)
    d = n + (a + b)
    d *= n
    h = s - 1.0
    h /= d + d
    h *= gamma[k - 1:k + m - 1] / gamma[k:k + m]
    out = np.empty((2, m))
    np.multiply(h, s, out=out[0])
    s -= 2.0
    h /= s
    np.multiply(h, a * a - b * b, out=out[1])
    return out


class JacobiRecurrence:
    """Q_n(x) = P_n(x) / gamma_n for n = d0, d0+1, ... by the three-term
    recurrence rescaled to C_n = 1 (see _gamma), resumable.

    Each `fill(out)` writes the next len(out) degrees of Q_n into the rows of
    `out` and carries the last two rows, so a long series is produced in
    windows of any size with memory bounded by the window; `gamma[n]` takes
    row n back to P_n. Degrees below zero are zero rows, and Q_0 = P_0 and
    Q_1 = P_1 are written explicitly, so the degenerate combination
    alpha+beta = -1 is safe. `gamma` (see _gamma) must reach as far as the
    recurrence will be read.
    """

    def __init__(self, params: JacobiParams, x, degree: int, gamma: np.ndarray):
        self.params = params
        self.x = np.asarray(x, dtype=float)
        self.x1 = np.empty((2,) + self.x.shape)  # x and 1, for A'_n x + B'_n * 1
        self.x1[0], self.x1[1] = self.x, 1.0
        self.gamma = gamma
        self.degree = min(degree, 0)
        # rows degree-2 and degree-1 (zero below degree 0)
        self.carry = np.zeros((2,) + self.x.shape)
        if degree > 0:
            self.fill(np.empty((degree,) + self.x.shape))

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Write the next out.shape[0] degrees of Q_n into out, row by row."""
        _fill((self,), (0, len(self.x)), out, self.carry)
        return out

    def steps(self, m: int) -> np.ndarray:
        """(A'_n, B'_n) of the next m degrees, each at least 2."""
        return _steps(self.params.alpha, self.params.beta, self.gamma, self.degree, m)


def _fill(recs: tuple, ends, out: np.ndarray, carry: np.ndarray) -> None:
    """Write the next len(out) degrees of each recurrence of recs into out.

    Recurrence j owns columns ends[j]..ends[j+1]-1 of out and of carry (rows
    n-2 and n-1; its own `carry` is a view of them). Once every recurrence
    has reached degree 2, a row is one step of two in-place calls over all
    the columns, as C_n = 1 for every recurrence; the rows before that are
    each recurrence's own fill.
    """
    m, (p2, p1) = len(out), carry
    i = min(m, max(0, *(2 - r.degree for r in recs)))
    if len(recs) > 1 and i:
        for r, lo, hi in zip(recs, ends, ends[1:]):
            _fill((r,), (0, hi - lo), out[:i, lo:hi], r.carry)
    elif i:
        rec = recs[0]
        a, b, x = rec.params.alpha, rec.params.beta, rec.x
        for n, row in enumerate(out[:i], rec.degree):
            if n < 0:
                row.fill(0.0)
            elif n == 0:
                row.fill(1.0)
            else:
                np.subtract(x, 1.0, out=row)
                row *= (a + b + 2.0) / 2.0
                row += a + 1.0
            p2, p1 = p1, row
        rec.degree += i
    if i < m:
        # Q_n = (A'_n x + B'_n) Q_{n-1} - Q_{n-2}, the window's A'_n x + B'_n first:
        # einsum adds B'_n * 1 to the rounded A'_n x, as two ufuncs would, in one pass
        for r, lo, hi in zip(recs, ends, ends[1:]):
            np.einsum("ki,k...->i...", r.steps(m - i), r.x1, out=out[i:, lo:hi])
            r.degree += m - i
        for row in out[i:]:
            row *= p1
            row -= p2
            p2, p1 = p1, row
    if m:
        # p2 may be the old carried row, so it is copied first
        np.copyto(carry[0], p2)
        np.copyto(carry[1], p1)


def jacobi_table(params: JacobiParams, nmax: int, x) -> np.ndarray:
    """Values P_n(x) for 0 <= n <= nmax; shape (nmax+1,) + x.shape."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rec = JacobiRecurrence(params, x, 0, _gamma(params.alpha, params.beta, nmax + 1))
    out = rec.fill(np.empty((nmax + 1,) + x.shape))
    out[2:] *= rec.gamma[2:nmax + 1].reshape((-1,) + (1,) * x.ndim)  # P_n = gamma_n Q_n
    return out


def _deriv_gamma_ratio(params: JacobiParams, n: np.ndarray, k: int) -> np.ndarray:
    # d^k/dx^k P_n = Gamma(n+a+b+1+k) / (2^k Gamma(n+a+b+1)) * P_{n-k}^{a+k,b+k}
    s = n + params.alpha + params.beta + 1.0
    return np.exp(gammaln(s + k) - gammaln(s) - k * math.log(2.0))


def _poly_order_terms(s, c, order: int) -> dict:
    # d^order/dtheta^order of f(cos theta) = sum_j pi_j(theta) f^(j)(cos theta)
    if order == 0:
        return {0: 1.0}
    if order == 1:
        return {1: -s}
    return {1: -c, 2: s * s}


def _order_terms(s, c, order: int, odd: bool) -> dict:
    # {j: pi_j} of one theta-derivative order of the polynomials or odd factors
    if not odd:
        return _poly_order_terms(s, c, order)
    # s_n = (1/2) sin(theta) * (shifted polynomial): Leibniz rule
    sin_derivs = (s, c, -s)
    out = {}
    for i in range(order + 1):
        w = 0.5 * math.comb(order, i) * sin_derivs[i]
        for j, pi in _poly_order_terms(s, c, order - i).items():
            out[j] = out.get(j, 0.0) + w * pi
    return out


class RowTerm:
    """One term of a row of theta-derivatives (see theta_row_terms):

        row n  +=  pi * scale(n) * Q_{n - lag}^{(params)}(cos theta)

    with params = source shifted by lag and Q the rows of JacobiRecurrence.
    """

    def __init__(self, source: JacobiParams, lag: int, pi):
        self.source, self.lag, self.pi = source, lag, pi
        self.params = source.shifted(lag)

    def scale(self, lo: int, hi: int, gamma: np.ndarray) -> np.ndarray:
        """kappa(n) gamma[n - lag] at n = lo..hi-1, with d^lag/dx^lag (c_n P_n)
        = kappa(n) P_{n-lag}^{(params)}: c_n times the parameter-shift Gamma
        ratio, and gamma (see JacobiRecurrence, at params) taking row n - lag
        of the recurrence to P_{n-lag}; zero for n < lag, where the
        derivative vanishes (n may be negative there)."""
        j = self.lag
        out = np.zeros(hi - lo)
        live = out[max(j - lo, 0):]
        n = np.arange(hi - live.size, hi)
        np.exp(log_norm_constant(self.source, n), out=live)
        if j > 0:
            live *= _deriv_gamma_ratio(self.source, n, j)
        live *= gamma[hi - live.size - j:hi - j]
        return out


def theta_row_terms(params: JacobiParams, theta, weights: dict,
                    odd: bool = False) -> list[RowTerm]:
    """Row n of sum_d weights[d] * (d/dtheta)^d f_n as a list of RowTerm.

    f_n is the trigonometric polynomial c_n P_n(cos theta) (odd=False) or
    the odd factor s_n (odd=True, see odd_factor_table). Each theta
    derivative of f(cos theta) is a sum over x-derivative orders j, and
    d^j/dx^j moves P_n to P_{n-j} with parameters shifted by j, so one term
    per j covers every order and weight: its pi collects the weighted
    trigonometric factors. Weights are scalars or arrays over theta; orders
    up to 2.
    """
    if max(weights, default=0) > 2:
        raise ValueError("theta derivatives implemented up to order 2")
    theta = np.asarray(theta, dtype=float)
    # the polynomials' order 0 reads no trigonometric factor
    s, c = (np.sin(theta), np.cos(theta)) if odd or max(weights, default=0) else (0.0, 0.0)
    pis = {}
    for d, w in weights.items():
        for j, pi in _order_terms(s, c, d, odd).items():
            pis[j] = pis.get(j, 0.0) + w * pi
    source = params.shifted(1) if odd else params
    return [RowTerm(source, j, pis[j]) for j in sorted(pis)]


class _Run:
    """One recurrence of a RowPlan: what reads it, then its window columns."""

    def __init__(self, params: JacobiParams, start: int):
        self.params, self.start, self.sets, self.length = params, start, set(), 0

    def begin(self, points: tuple, lo: int, gamma: np.ndarray) -> JacobiRecurrence:
        """Its recurrence over the union of its point sets, whose rows are
        the window's columns lo.. on."""
        sets, self.cols, end = sorted(self.sets), {}, lo
        for i in sets:
            self.cols[i], end = slice(end, end + points[i].size), end + points[i].size
        x = np.cos(points[sets[0]] if len(sets) == 1
                   else np.concatenate([points[i] for i in sets]))
        return JacobiRecurrence(self.params, x, self.start, gamma)


class RowPlan:
    """The recurrences behind sums of RowTerm rows, each run once, and the sums.

    A factor (see add) reads RowTerms on one of the plan's point sets: its
    row k is row k + offset of each term. One JacobiRecurrence runs per
    distinct (parameters, start degree) of all factors' terms, over the
    union of the point sets reading it (equal sets count once) and as far as
    the longest factor reading it. advance(k0, k1, runs) fills rows k0..k1-1
    of the runs that one pass of windows reads, stepped together as one
    array (see _fill), and rows() reads them: rows of Q_n = P_n / gamma_n.
    gamma is computed once per parameters, as far as any run is stepped, and
    RowTerm.scale, which folds it in, once per (source, lag), over every
    degree a factor reads; each factor reads a slice, bitwise the values of
    a call on its own degrees, as both are elementwise. All factors are
    added before either is read.
    """

    def __init__(self, points: tuple, chunk: int):
        self.points, self.chunk = points, chunk
        self._runs, self._degrees, self._scales = {}, {}, {}
        self._tops, self._gammas = {}, {}
        self._k0, self._tmp = 0, None

    def add(self, terms: list, length: int, where: int = 0, offset: int = 0) -> tuple:
        """The factor of `terms` on point set `where`, read below row `length`."""
        if self._gammas:
            raise ValueError("a factor added after the plan's gamma was read")
        if where:  # a point set equal to an earlier one reads that one's columns
            p = self.points[where]
            where = next(j for j, q in enumerate(self.points)
                         if q is p or q.shape == p.shape and np.array_equal(q, p))
        runs = []
        for term in terms:
            key = term.params, offset - term.lag  # (parameters, start degree)
            run = self._runs.get(key)
            if run is None:
                run = self._runs[key] = _Run(*key)
            run.sets.add(where)
            run.length = max(run.length, length)
            runs.append(run)
            lo, hi = self._degrees.get((term.source, term.lag), (offset, offset + length))
            self._degrees[term.source, term.lag] = min(lo, offset), max(hi, offset + length)
            # a pass steps a run it still reads to the end of the chunk
            top = run.start + -(-length // self.chunk) * self.chunk
            self._tops[term.params] = max(self._tops.get(term.params, 0), top)
        return runs, where, terms, offset

    def gamma(self, params: JacobiParams) -> np.ndarray:
        """gamma_n of params (see _gamma), up to the highest degree any of the
        plan's runs at params is stepped to."""
        gamma = self._gammas.get(params)
        if gamma is None:
            gamma = self._gammas[params] = _gamma(params.alpha, params.beta,
                                                  self._tops[params])
        return gamma

    def advance(self, k0: int, k1: int, runs=None) -> None:
        """Fill rows k0..k1-1 of `runs` (every run of the plan by default),
        which one pass of windows reads; a pass begins at k0 = 0 and keeps
        its buffers to its end."""
        if k0 == 0:
            self._pass = self._window = None  # the last pass's buffers go first
            # longest first, so the runs still going are a prefix of the columns
            order = [r for r in self._runs.values() if runs is None or r in runs]
            order.sort(key=lambda r: -r.length)
            recs, ends = [], [0]
            for run in order:
                recs.append(run.begin(self.points, ends[-1], self.gamma(run.params)))
                ends.append(ends[-1] + recs[-1].x.size)
            carry = recs[0].carry
            if len(recs) > 1:  # the carried rows side by side, as the window's
                carry = np.empty((2, ends[-1]))
                for rec, lo, hi in zip(recs, ends, ends[1:]):
                    carry[:, lo:hi] = rec.carry
                    rec.carry = carry[:, lo:hi]
            self._window = np.empty((min(self.chunk, order[0].length), ends[-1]))
            self._pass = order, recs, ends, carry
        order, recs, ends, carry = self._pass
        live = sum(r.length > k0 for r in order) if k0 else len(order)  # all read at 0
        if live < len(recs):
            recs, ends, carry = recs[:live], ends[:live + 1], carry[:, :ends[live]]
        _fill(recs, ends, self._window[:k1 - k0, :ends[-1]], carry)
        self._k0 = k0

    def rows(self, factor: tuple, m: int) -> list[np.ndarray]:
        """The first m rows of the current window, one array per term."""
        runs, where = factor[:2]
        return [self._window[:m, run.cols[where]] for run in runs]

    def scales(self, factor: tuple, k0: int, k1: int) -> list[np.ndarray]:
        """RowTerm.scale of each term of a factor at its rows k0..k1-1."""
        _, _, terms, offset = factor
        out = []
        for term in terms:
            key = term.source, term.lag
            lo, hi = self._degrees[key]
            if key not in self._scales:
                self._scales[key] = term.scale(lo, hi, self.gamma(term.params))
            out.append(self._scales[key][k0 + offset - lo:k1 + offset - lo])
        return out

    def sum(self, factor: tuple, m: int, out: np.ndarray) -> np.ndarray:
        """The first m rows of a factor in the current window, written to
        out[:m]: pi * scale * raw row, added over the terms in lag order."""
        out = out[:m]
        out.fill(0.0)
        if self._tmp is None:  # one scratch for every sum, sized for the largest
            self._tmp = np.empty(self.chunk * max(p.size for p in self.points))
        tmp = self._tmp[:out.size].reshape(out.shape)
        for term, raw, scale in zip(factor[2], self.rows(factor, m),
                                    self.scales(factor, self._k0, self._k0 + m)):
            np.multiply(raw, scale[:, None], out=tmp)
            tmp *= term.pi
            out += tmp
        return out


def _theta_table(params: JacobiParams, nmax: int, theta, dmax: int,
                 odd: bool) -> np.ndarray:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    plan = RowPlan((theta,), nmax + 1)
    orders = [plan.add(theta_row_terms(params, theta, {d: 1.0}, odd), nmax + 1)
              for d in range(dmax + 1)]
    plan.advance(0, nmax + 1)
    out = np.empty((dmax + 1, nmax + 1, theta.size))
    for d, factor in enumerate(orders):
        plan.sum(factor, nmax + 1, out[d])
    return out


def trig_poly_table(params: JacobiParams, nmax: int, theta, dmax: int = 0) -> np.ndarray:
    """Theta-derivative table of the trigonometric polynomials.

    Returns T with shape (dmax+1, nmax+1, npts): T[d, n] is the d-th theta
    derivative of c_n P_n(cos theta). Supports dmax <= 2.
    """
    return _theta_table(params, nmax, theta, dmax, False)


def odd_factor_table(params: JacobiParams, nmax: int, theta, dmax: int = 0) -> np.ndarray:
    """Theta-derivative table of s_n = (1/2) sin(theta) * c_n' P_n^{a+1,b+1}(cos theta).

    s_n = sqrt(2) * Phi_{2n+1} restricted to its natural formula; odd about 0.
    Shape (dmax+1, nmax+1, npts), dmax <= 2.
    """
    return _theta_table(params, nmax, theta, dmax, True)


@dataclass(frozen=True)
class BasisElement:
    """One element of one of the four orthonormal systems.

    kind: trig_poly -> P_n on (0,pi) with dmu+;   jacobi_fn -> phi_n on (0,pi) with dtheta;
          sym_poly  -> Phi_n on (-pi,pi) with dmu; sym_fn    -> Theta_n on (-pi,pi) with dtheta.
    """

    params: JacobiParams
    index: int
    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.index < 0:
            raise ValueError("index must be nonnegative")

    @property
    def parity(self) -> str:
        if self.kind in (TRIG_POLY, JACOBI_FN):
            return "even"
        return "even" if self.index % 2 == 0 else "odd"

    @property
    def eigen_index(self) -> int:
        """Index k with eigenvalue lambda_k."""
        if self.kind in (TRIG_POLY, JACOBI_FN):
            return self.index
        return half_index(self.index)

    @property
    def lam(self) -> float:
        return eigenvalue(self.params, self.eigen_index)


def eval_basis(elem: BasisElement, theta) -> np.ndarray:
    return basis_matrix(elem.params, elem.kind, [elem.index], theta)[0]


def basis_matrix(params: JacobiParams, kind: str, n, theta, order: int = 0) -> np.ndarray:
    """Rows n of one family at theta, or their theta-derivatives of the given
    order; shape (len(n), npts).

    n is a 1-D index array, in any order and with repeats. The symmetrized
    kinds read Phi_2k and Phi_2k+1 from the polynomials and the odd factors,
    one table for each parity some index has. Polynomial kinds support
    order <= 2; the psi-weighted kinds support order = 0 only (their
    derivatives are reached through the conjugation identities rather than
    pointwise formulas).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    n = np.asarray(n)
    if n.ndim != 1:
        raise ValueError("indices must be a 1-D array")
    if (n < 0).any():
        raise ValueError("index must be nonnegative")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if kind in (TRIG_POLY, JACOBI_FN):
        if (theta <= 0.0).any() or (theta >= np.pi).any():
            raise ValueError("element is defined on (0,pi)")
    elif (np.abs(theta) >= np.pi).any():
        raise ValueError("element is defined on (-pi,pi)")
    weighted = kind in (JACOBI_FN, SYM_FN)
    if weighted and order != 0:
        raise ValueError("psi-weighted elements are evaluated at order 0 only")
    if n.size == 0:
        return np.empty((0, theta.size))
    if kind in (TRIG_POLY, JACOBI_FN):
        out = trig_poly_table(params, int(n.max()), theta, order)[order, n]
    else:
        out = np.empty((n.size, theta.size))
        for parity, table in enumerate((trig_poly_table, odd_factor_table)):
            rows = n % 2 == parity
            if rows.any():
                k = n[rows] // 2
                out[rows] = table(params, int(k.max()), theta, order)[order, k]
        out *= 1.0 / math.sqrt(2.0)
    # phi_n = psi P_n; Theta_n = psi Phi_n exactly, both parities (the odd index's
    # sign(theta) is absorbed by sin(theta/2) > 0 <=> theta > 0)
    return psi(params, theta) * out if weighted else out


def coeff_A(params: JacobiParams, theta) -> np.ndarray:
    """A(t) = (alpha+1/2)cot(t/2) - (beta+1/2)tan(t/2), the odd-part multiplier of DD."""
    theta = np.asarray(theta, dtype=float)
    return ((params.alpha + 0.5) / np.tan(theta / 2.0)
            - (params.beta + 0.5) * np.tan(theta / 2.0))


def coeff_A_prime(params: JacobiParams, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    return (-(params.alpha + 0.5) / (2.0 * np.sin(theta / 2.0) ** 2)
            - (params.beta + 0.5) / (2.0 * np.cos(theta / 2.0) ** 2))


def coeff_b(params: JacobiParams, theta) -> np.ndarray:
    """b(t) = A(t)/2 = psi'/psi; the reflection multiplier of DD_bar."""
    return 0.5 * coeff_A(params, theta)


# ---------------------------------------------------------------------------
# exact ladder action on index arrays of one family
# ---------------------------------------------------------------------------

def _ladder_root(params: JacobiParams, n) -> np.ndarray:
    # sqrt(lambda_n - lambda_0) = sqrt(n (n + alpha + beta + 1)), elementwise
    n = np.asarray(n, dtype=float)
    return np.sqrt(n * (n + params.alpha + params.beta + 1.0))


def _vanish(coef: np.ndarray, params: JacobiParams, n: np.ndarray) -> tuple:
    # live factors are nonzero: a vanished image gets factor +0 and index 0
    dead = coef == 0.0
    return np.where(dead, 0.0, coef), params, np.where(dead, 0, n)


def ladder_images(N: int, params: JacobiParams, kind: str, n,
                  interlaced: bool = False) -> tuple:
    """The order-N chain on the indices n of one family, in closed form:
    (factors, image params, image indices), with factor 0 and image index 0
    where the image vanishes. With r_n = sqrt(lambda_n - lambda_0):

    - DD^N on sym_poly and DD_bar^N on sym_fn: DD Phi_2k = -r_k Phi_2k-1 and
      DD Phi_2k+1 = r_k+1 Phi_2k+2, so every step has the root r_<n> and a
      sign that flips with the index parity, which flips at every step;
    - interlaced on sym_poly: delta_N^even on the even indices and
      delta_N^odd on the odd ones, each step with the same factor:
      delta_N^even Phi_2k = (-r_k)^N Phi_2k-(N mod 2) and
      delta_N^odd Phi_2k+1 = (-r_k+1)^N Phi_2k+1+(N mod 2);
    - D^N on jacobi_fn: D phi_n^{a,b} = -r_n phi_{n-1}^{a+1,b+1}, step j at
      the parameters shifted by j, landing on params.shifted(N);
    - interlaced on jacobi_fn: D_N^even = ...D D* D alternates D (shifting
      the parameters up) and D* (shifting back), each step -r_n:
      D_N^even phi_n = (-r_n)^N phi_{n-(N mod 2)} at params.shifted(N mod 2).

    The plain and the interlaced chains differ by a parity-dependent sign:
    DD^N = (-1)^floor(N/2) delta_N^even on even elements and
    DD^N = (-1)^ceil(N/2) delta_N^odd on odd ones; this helper never absorbs
    it. Products of factors multiply in step order.
    """
    if N < 0:
        raise ValueError("chain length must be nonnegative")
    if kind not in (SYM_POLY, SYM_FN, JACOBI_FN):
        raise ValueError(f"no ladder action on kind {kind!r}")
    if interlaced and kind == SYM_FN:
        raise ValueError("interlaced chains act on sym_poly and jacobi_fn elements")
    n = np.asarray(n)
    if kind == JACOBI_FN:
        if interlaced:
            steps = [-_ladder_root(params, n)] * N
            params, m = params.shifted(N % 2), n - N % 2
        else:  # an element dead at step j stays at index 0, whose root is 0
            steps = [-_ladder_root(params.shifted(j), np.maximum(n - j, 0))
                     for j in range(N)]
            params, m = params.shifted(N), n - N
    else:
        r, odd = _ladder_root(params, half_index(n)), n % 2 == 1
        m = np.where(odd, n + N % 2, n - N % 2)
        if interlaced:
            # Python float powers: a vectorized power may round differently
            return _vanish(np.array([(-x) ** N for x in r.tolist()]), params, m)
        steps = [np.where(odd == (j % 2 == 0), r, -r) for j in range(N)]
    coef = np.ones(n.shape)
    for c in steps:
        coef *= c
    return _vanish(coef, params, m)


def jacobi_operator_rows(params: JacobiParams, n, theta) -> tuple:
    """The symmetrized second-order operator applied to the sym_poly elements
    of indices n, as a differential operator, and the elements: two arrays
    of shape (len(n), npts).

    JJ f = -f'' - A f' - A' f_odd + lambda_0 f, evaluated with analytic
    derivatives of the elements, each row as the element alone would give it.
    At theta = 0, where A and A' are singular, the rows are the theta -> 0
    limit: A f' -> (2 alpha + 1) f''(0) on the even elements, and the odd
    rows vanish. Independent of the ladder identities, so eigen-residual
    tests built on this are not circular.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    f0, f1, f2 = (basis_matrix(params, SYM_POLY, n, theta, order) for order in range(3))
    zero, odd = theta == 0.0, np.asarray(n) % 2 == 1
    away = np.where(zero, 1.0, theta)  # its columns at theta = 0 are replaced
    out = -f2 - coeff_A(params, away) * f1 + params.lam0 * f0
    out[odd] -= coeff_A_prime(params, away) * f0[odd]
    out[:, zero] = np.where(odd[:, None], 0.0, params.lam0 * f0[:, zero]
                            - (2.0 * params.alpha + 2.0) * f2[:, zero])
    return out, f0
