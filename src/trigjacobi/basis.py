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
    ambiguity.
    """
    a, b = params.alpha, params.beta
    n = np.asarray(n, dtype=float)
    # the generic formula hits gammaln(0) at n = 0 when alpha+beta = -1
    with np.errstate(invalid="ignore", divide="ignore"):
        generic = 0.5 * (
            np.log(2.0 * n + a + b + 1.0)
            + gammaln(n + 1.0)
            + gammaln(n + a + b + 1.0)
            - gammaln(n + a + 1.0)
            - gammaln(n + b + 1.0)
        )
    base = 0.5 * (gammaln(a + b + 2.0) - gammaln(a + 1.0) - gammaln(b + 1.0))
    return np.where(n == 0, base, generic)


class JacobiRecurrence:
    """P_n(x) for n = d0, d0+1, ... by the three-term recurrence, resumable.

    Each `fill(out)` writes the next len(out) degrees into the rows of `out`
    and carries the last two rows, so a long series is produced in windows
    of any size with memory bounded by the window. Degrees below zero are
    zero rows. The recurrence coefficients are nonsingular for every n >= 2
    when alpha, beta > -1, and degree 1 is written explicitly, so the
    degenerate combination alpha+beta = -1 is safe.
    """

    def __init__(self, params: JacobiParams, x, degree: int = 0):
        self.params = params
        self.x = np.asarray(x, dtype=float)
        self.x1 = np.empty((2,) + self.x.shape)  # x and 1, for A_n x + B_n * 1
        self.x1[0], self.x1[1] = self.x, 1.0
        self.degree = min(degree, 0)
        # rows degree-2 and degree-1 (zero below degree 0), and scratch
        self.carry = np.zeros((3,) + self.x.shape)
        if degree > 0:
            self.fill(np.empty((degree,) + self.x.shape))

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Write the next out.shape[0] degrees into out, row by row."""
        _fill((self,), (0, len(self.x)), out, self.carry)
        return out


def _fill(recs: tuple, ends, out: np.ndarray, carry: np.ndarray, coef=None) -> None:
    """Write the next len(out) degrees of each recurrence of recs into out.

    Recurrence j owns columns ends[j]..ends[j+1]-1 of out and of carry (rows
    n-2 and n-1, then scratch; its own `carry` is a view of them). Once every
    recurrence has reached degree 2, a row is one three-term step over all
    the columns, C_n a float for one recurrence and a row spread over the
    columns for several (coef is their scratch); the rows before that are
    each recurrence's own fill.
    """
    m, (p2, p1, tmp) = len(out), carry
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
        # P_n = (A_n x + B_n) P_{n-1} - C_n P_{n-2}, the window's A_n x + B_n first:
        # einsum adds B_n * 1 to the rounded A_n x, as two ufuncs would, in one pass
        Cs = []
        for r, lo, hi in zip(recs, ends, ends[1:]):
            A, B, C = _coefficients(r.params.alpha, r.params.beta, r.degree, m - i)
            np.einsum("ki,k...->i...", np.array([A, B]), r.x1, out=out[i:, lo:hi])
            Cs.append(C)
            r.degree += m - i
        for row, cn in zip(out[i:], C if len(recs) == 1 else _spread(Cs, ends, coef)):
            row *= p1
            np.multiply(p2, cn, out=tmp)
            row -= tmp
            p2, p1 = p1, row
    if m:
        # p2 may be the old carried row, so it is copied first
        np.copyto(carry[0], p2)
        np.copyto(carry[1], p1)


# rows of per-column C_n that a step of several recurrences writes at a time
_SPREAD_ROWS = 32


def _spread(Cs: list, ends: list, coef: np.ndarray):
    """Rows of per-column C_n: recurrence j's C_n on columns ends[j]..ends[j+1]-1,
    written into coef len(coef) rows at a time."""
    Cs, n = [np.reshape(C, (-1, 1)) for C in Cs], len(Cs[0])
    for k in range(0, n, len(coef)):
        block = coef[:min(len(coef), n - k), :ends[-1]]
        for C, lo, hi in zip(Cs, ends, ends[1:]):
            block[:, lo:hi] = C[k:k + len(block)]
        yield from block


def _coefficients(a: float, b: float, n: int, m: int) -> tuple:
    """A_k, B_k and C_k of the recurrence, k = n..n+m-1: A_k and B_k arrays,
    C_k a list."""
    ns = np.arange(n, n + m, dtype=float)
    s = 2.0 * ns + a + b
    c0 = 2.0 * ns * (ns + a + b) * (s - 2.0)
    c1 = (s - 1.0) / c0
    return (c1 * s * (s - 2.0), c1 * (a * a - b * b),
            (2.0 * (ns + a - 1.0) * (ns + b - 1.0) * s / c0).tolist())


def jacobi_table(params: JacobiParams, nmax: int, x) -> np.ndarray:
    """Values P_n(x) for 0 <= n <= nmax; shape (nmax+1,) + x.shape."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return JacobiRecurrence(params, x).fill(np.empty((nmax + 1,) + x.shape))


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

        row n  +=  pi * scale(n) * P_{n - lag}^{(params)}(cos theta)

    with params = source shifted by lag.
    """

    def __init__(self, source: JacobiParams, lag: int, pi):
        self.source, self.lag, self.pi = source, lag, pi
        self.params = source.shifted(lag)

    def scale(self, n) -> np.ndarray:
        """kappa(n) with d^lag/dx^lag (c_n P_n) = kappa(n) P_{n-lag}^{(params)}:
        c_n times the parameter-shift Gamma ratio; zero for n < lag, where
        the derivative vanishes (n may be negative there)."""
        n = np.asarray(n, dtype=float)
        j = self.lag
        live = np.maximum(n, j)  # keeps the formulas finite where the result is 0
        vals = np.exp(log_norm_constant(self.source, live))
        if j > 0:
            vals *= _deriv_gamma_ratio(self.source, live, j)
        return np.where(n >= j, vals, 0.0)


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
    s, c = np.sin(theta), np.cos(theta)
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

    def begin(self, points: tuple, lo: int) -> JacobiRecurrence:
        """Its recurrence over the union of its point sets, whose rows are
        the window's columns lo.. on."""
        sets, self.cols, end = sorted(self.sets), {}, lo
        for i in sets:
            self.cols[i], end = slice(end, end + points[i].size), end + points[i].size
        x = np.cos(points[sets[0]] if len(sets) == 1
                   else np.concatenate([points[i] for i in sets]))
        return JacobiRecurrence(self.params, x, degree=self.start)


class RowPlan:
    """The recurrences behind sums of RowTerm rows, each run once, and the sums.

    A factor (see add) reads RowTerms on one of the plan's point sets: its
    row k is row k + offset of each term. One JacobiRecurrence runs per
    distinct (parameters, start degree) of all factors' terms, over the
    union of the point sets reading it (equal sets count once) and as far as
    the longest factor reading it. advance(k0, k1, runs) fills rows k0..k1-1
    of the runs that one pass of windows reads, stepped together as one
    array (see _fill), and rows() reads them. RowTerm.scale runs once per
    (source, lag), over every degree a factor reads; each factor reads a
    slice, bitwise the values of a call on its own degrees, as the scale is
    elementwise. All factors are added before any scale is read.
    """

    def __init__(self, points: tuple, chunk: int):
        self.points, self.chunk = points, chunk
        self._runs, self._degrees, self._scales = {}, {}, {}
        self._k0, self._tmp = 0, None

    def add(self, terms: list, length: int, where: int = 0, offset: int = 0) -> tuple:
        """The factor of `terms` on point set `where`, read below row `length`."""
        if self._scales:
            raise ValueError("a factor added after the plan's scales were read")
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
        return runs, where, terms, offset

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
                recs.append(run.begin(self.points, ends[-1]))
                ends.append(ends[-1] + recs[-1].x.size)
            carry, coef = recs[0].carry, None
            if len(recs) > 1:  # the carried rows side by side, as the window's
                carry, coef = np.empty((3, ends[-1])), np.empty((_SPREAD_ROWS, ends[-1]))
                for rec, lo, hi in zip(recs, ends, ends[1:]):
                    carry[:, lo:hi] = rec.carry
                    rec.carry = carry[:, lo:hi]
            self._window = np.empty((min(self.chunk, order[0].length), ends[-1]))
            self._pass = order, recs, ends, carry, coef
        order, recs, ends, carry, coef = self._pass
        live = sum(r.length > k0 for r in order) if k0 else len(order)  # all read at 0
        if live < len(recs):
            recs, ends, carry = recs[:live], ends[:live + 1], carry[:, :ends[live]]
        _fill(recs, ends, self._window[:k1 - k0, :ends[-1]], carry, coef)
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
                self._scales[key] = term.scale(np.arange(lo, hi))
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


def apply_jacobi_operator(elem: BasisElement, theta) -> np.ndarray:
    """The symmetrized second-order operator, applied as a differential operator.

    JJ f = -f'' - A f' - A' f_odd + lambda_0 f, evaluated with analytic
    derivatives of the element. Independent of the ladder identities, so
    eigen-residual tests built on this are not circular.
    """
    if elem.kind != SYM_POLY:
        raise ValueError("differential application implemented for sym_poly")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    p = elem.params
    f0, f1, f2 = (basis_matrix(p, SYM_POLY, [elem.index], theta, order)[0]
                  for order in range(3))
    out = -f2 - coeff_A(p, theta) * f1 + p.lam0 * f0
    if elem.parity == "odd":
        out -= coeff_A_prime(p, theta) * f0
    return out
