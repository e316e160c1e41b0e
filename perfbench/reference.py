"""Reference numerics for the benchmark's correctness checks.

Nothing here imports trigjacobi. The orthonormal Jacobi polynomials come
from the Jacobi matrix of the weight (1-x)^a (1+x)^b (the monic three-term
recurrence, normalized step by step), a different formulation from the
package's unnormalized recurrence times Gamma-function norms. `spot_check`
compares them with scipy.special.eval_jacobi and the closed-form norms.

Conventions follow the paper's trigonometric setting: dmu+ on (0, pi) has
density sin(t/2)^(2a+1) cos(t/2)^(2b+1), the speed of the k-th eigenvalue is
|k + (a+b+1)/2|, the even kernel component is
(1/2) sum_k e^{-t |k + (a+b+1)/2|} p_k(cos th) p_k(cos ph), and the odd one
is (1/4) sin th sin ph times the even one at parameters (a+1, b+1).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import eval_jacobi, gammaln


def mu_mass(a: float, b: float) -> float:
    """Total mass of dmu+ = 2^{-a-b-1} (1-x)^a (1+x)^b dx."""
    return math.exp(gammaln(a + 1.0) + gammaln(b + 1.0) - gammaln(a + b + 2.0))


def orthonormal_table(a: float, b: float, n: int, x) -> np.ndarray:
    """p_k(x) for k < n, orthonormal in L2(dmu+) with positive leading
    coefficient; shape (n, x.size)."""
    x = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    out = np.empty((n, x.size))
    out[0] = 1.0 / math.sqrt(mu_mass(a, b))
    if n == 1:
        return out
    # recurrence coefficients of the monic polynomials: diagonal c_k and
    # squared off-diagonal d_k; k = 0 and d_1 are written out so that
    # a + b = 0 and a + b = -1 need no limits
    k = np.arange(n, dtype=float)
    s = 2.0 * k + a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        c = (b * b - a * a) / (s * (s + 2.0))
        d = (4.0 * k * (k + a) * (k + b) * (k + a + b)
             / (s * s * (s + 1.0) * (s - 1.0)))
    c[0] = (b - a) / (a + b + 2.0)
    d[0] = 0.0
    d[1] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
    root = np.sqrt(d)
    out[1] = (x - c[0]) * out[0] / root[1]
    for j in range(1, n - 1):
        out[j + 1] = ((x - c[j]) * out[j] - root[j] * out[j - 1]) / root[j + 1]
    return out


def spot_check(a: float, b: float, degrees, x) -> float:
    """Largest relative gap between orthonormal_table and eval_jacobi times
    the closed-form norm at the given degrees and points."""
    degrees = sorted(set(int(d) for d in degrees))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    table = orthonormal_table(a, b, degrees[-1] + 1, x)
    worst = 0.0
    for k in degrees:
        if k == 0:
            log_c2 = gammaln(a + b + 2.0) - gammaln(a + 1.0) - gammaln(b + 1.0)
        else:
            log_c2 = (math.log(2.0 * k + a + b + 1.0) + gammaln(k + 1.0)
                      + gammaln(k + a + b + 1.0) - gammaln(k + a + 1.0)
                      - gammaln(k + b + 1.0))
        want = eval_jacobi(k, a, b, x) * math.exp(0.5 * log_c2)
        gap = np.max(np.abs(table[k] - want)) / np.max(np.abs(want))
        worst = max(worst, float(gap))
    return worst


def series_length(a: float, b: float, t: float, eps: float = 1e-18) -> int:
    """A length past which e^{-t k} (k+1)^q < eps, with q one more than the
    growth exponent of p_k(x) p_k(y), at most 2 max(a, b) + 1."""
    q = 2.0 * max(a, b, -0.5) + 3.0
    n = 10.0
    for _ in range(100):
        n = (q * math.log(n + 1.0) - math.log(eps)) / t
    return int(math.ceil(n)) + 1


def kernel_even(a: float, b: float, theta, phi, ts,
                with_scale: bool = False):
    """Even kernel component at pairs (theta_i, phi_i), times ts: (npairs, nt).

    with_scale=True also returns the sum of the absolute values of the
    terms, the size of the rounding error any summation of the series makes.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    n = series_length(a, b, float(ts.min()))
    P = orthonormal_table(a, b, n, np.concatenate([np.cos(theta), np.cos(phi)]))
    prod = P[:, : theta.size] * P[:, theta.size:]
    E = np.exp(-np.outer(ts, family_speeds(a, b, "trig_poly", n)))
    value = 0.5 * (E @ prod).T
    if not with_scale:
        return value
    return value, 0.5 * (E @ np.abs(prod)).T


def kernel_odd(a: float, b: float, theta, phi, ts, with_scale: bool = False):
    """Odd kernel component: (1/4) sin theta sin phi x even part at (a+1, b+1)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    factor = 0.25 * (np.sin(theta) * np.sin(phi))[:, None]
    value, scale = kernel_even(a + 1.0, b + 1.0, theta, phi, ts, with_scale=True)
    if not with_scale:
        return factor * value
    return factor * value, np.abs(factor) * scale


# --- basis families (for the operator checks) ---------------------------------

def psi(a: float, b: float, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    return (np.abs(np.sin(theta / 2.0)) ** (a + 0.5)
            * np.cos(theta / 2.0) ** (b + 0.5))


def family_matrix(a: float, b: float, kind: str, n: int, theta) -> np.ndarray:
    """Rows 0..n-1 of one of the four orthonormal systems at theta.

    trig_poly: p_k(cos th) on (0, pi);  jacobi_fn: psi * trig_poly;
    sym_poly: Phi_{2k} = p_k(cos th)/sqrt2, Phi_{2k+1} = sin(th) q_k(cos th)/(2 sqrt2)
    with q_k orthonormal at (a+1, b+1);  sym_fn: psi * sym_poly.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    x = np.cos(theta)
    if kind in ("trig_poly", "jacobi_fn"):
        out = orthonormal_table(a, b, n, x)
    elif kind in ("sym_poly", "sym_fn"):
        half = (n + 1) // 2
        even = orthonormal_table(a, b, half, x) / math.sqrt(2.0)
        odd = (0.5 * np.sin(theta)
               * orthonormal_table(a + 1.0, b + 1.0, half, x) / math.sqrt(2.0))
        out = np.empty((2 * half, theta.size))
        out[0::2], out[1::2] = even, odd
        out = out[:n]
    else:
        raise ValueError(f"unknown family {kind!r}")
    if kind in ("jacobi_fn", "sym_fn"):
        out = out * psi(a, b, theta)[None, :]
    return out


def family_speeds(a: float, b: float, kind: str, n: int) -> np.ndarray:
    """sqrt(lambda) attached to each of the first n elements of a family."""
    idx = np.arange(n)
    if kind in ("sym_poly", "sym_fn"):
        idx = (idx + 1) // 2
    return np.abs(idx + 0.5 * (a + b + 1.0))
