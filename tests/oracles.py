"""High-precision reference values, independent of the package implementation.

Everything here is computed with mpmath from integral or hypergeometric
definitions, not from the recurrences and ladder identities the package uses,
or, at half-integer parameters, from elementary closed forms in NumPy, or, at
every parameter, from Bailey's closed form for the Poisson kernel as a
float64 sum of positive terms.
Run as a script to regenerate the frozen dictionaries pasted into the tests:

    python tests/oracles.py
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 40

PARAM_PAIRS = [
    (0.0, 0.0),
    (-0.5, -0.5),
    (1.5, -0.7),
    (-0.7, -0.6),
    (2.5, 3.5),
]

THETAS = [mp.mpf("0.3"), mp.mpf("1.1"), mp.mpf("2.7")]


def mp_jacobi(n, a, b, x):
    """P_n^{(a,b)}(x) in high precision (mpmath's closed-form evaluation)."""
    return mp.jacobi(n, mp.mpf(a), mp.mpf(b), mp.mpf(x))


def mp_mu_density(a, b, theta):
    """Density of dmu+ in theta: psi(theta)^2."""
    a, b = mp.mpf(a), mp.mpf(b)
    return mp.sin(theta / 2) ** (2 * a + 1) * mp.cos(theta / 2) ** (2 * b + 1)


def mp_h_n(n, a, b):
    """Squared L2(dmu+) norm of the unnormalized P_n(cos theta)."""
    f = lambda t: mp_jacobi(n, a, b, mp.cos(t)) ** 2 * mp_mu_density(a, b, t)
    return mp.quad(f, [0, mp.pi])


def mp_norm_constant(n, a, b):
    return 1 / mp.sqrt(mp_h_n(n, a, b))


def mp_log_norm_constant(n, a, b):
    """log c_n in closed form: c_n^2 = (2n+a+b+1) n! Gamma(n+a+b+1)
    / (Gamma(n+a+1) Gamma(n+b+1)), and c_0^2 = Gamma(a+b+2) / (Gamma(a+1)
    Gamma(b+1)), which stays finite at a+b = -1."""
    a, b, g = mp.mpf(a), mp.mpf(b), mp.loggamma
    if n == 0:
        return (g(a + b + 2) - g(a + 1) - g(b + 1)) / 2
    return (mp.log(2 * n + a + b + 1) + g(n + 1) + g(n + a + b + 1)
            - g(n + a + 1) - g(n + b + 1)) / 2


def mp_trig_poly(n, a, b, theta):
    return mp_norm_constant(n, a, b) * mp_jacobi(n, a, b, mp.cos(theta))


def mp_delta_trig_poly(n, a, b, theta):
    """d/dtheta of the normalized trigonometric polynomial, by mpmath diff."""
    return mp.diff(lambda t: mp_trig_poly(n, a, b, t), theta)


def gen_norm_constants(nvals=(0, 1, 2, 5, 12)):
    out = {}
    for a, b in PARAM_PAIRS:
        for n in nvals:
            out[(a, b, n)] = mp.nstr(mp_norm_constant(n, a, b), 22)
    return out


def gen_trig_poly_values(nvals=(0, 1, 3, 7)):
    out = {}
    for a, b in PARAM_PAIRS:
        for n in nvals:
            for t in THETAS:
                out[(a, b, n, float(t))] = mp.nstr(mp_trig_poly(n, a, b, t), 22)
    return out


def gen_delta_values(nvals=(1, 2, 5)):
    out = {}
    for a, b in PARAM_PAIRS:
        for n in nvals:
            for t in THETAS:
                out[(a, b, n, float(t))] = mp.nstr(mp_delta_trig_poly(n, a, b, t), 22)
    return out


def gen_ball_measures():
    """mu+ of a few intervals, by direct high-precision quadrature."""
    intervals = [("0.1", "0.4"), ("0.0", "1.0"), ("1.2", "3.0"), ("2.9", "3.14")]
    out = {}
    for a, b in PARAM_PAIRS:
        for lo, hi in intervals:
            v = mp.quad(lambda t: mp_mu_density(a, b, t), [mp.mpf(lo), mp.mpf(hi)])
            out[(a, b, lo, hi)] = mp.nstr(v, 22)
    return out


_NORM_CACHE = {}


def _norm(n, a, b):
    key = (n, a, b)
    if key not in _NORM_CACHE:
        _NORM_CACHE[key] = mp_norm_constant(n, a, b)
    return _NORM_CACHE[key]


def mp_even_kernel(a, b, theta, phi, t, K=140):
    """Even semigroup component: (1/2) sum e^{-t sqrt(lam_k)} P_k(th) P_k(ph)
    with normalized trigonometric polynomials, straight summation."""
    half = (mp.mpf(a) + mp.mpf(b) + 1) / 2
    acc = mp.mpf(0)
    for k in range(K):
        c = _norm(k, a, b)
        term = (mp.e ** (-t * abs(k + half))
                * c * mp_jacobi(k, a, b, mp.cos(theta))
                * c * mp_jacobi(k, a, b, mp.cos(phi)))
        acc += term
    return acc / 2


def mp_odd_kernel(a, b, theta, phi, t, K=140):
    """Odd component via the sine-carrying companions s_k."""
    a1, b1 = a + 1, b + 1
    half = (mp.mpf(a) + mp.mpf(b) + 1) / 2
    acc = mp.mpf(0)
    for k in range(K):
        c = _norm(k, a1, b1)
        s_th = mp.sin(theta) / 2 * c * mp_jacobi(k, a1, b1, mp.cos(theta))
        s_ph = mp.sin(phi) / 2 * c * mp_jacobi(k, a1, b1, mp.cos(phi))
        acc += mp.e ** (-t * abs(k + 1 + half)) * s_th * s_ph
    return acc / 2


def mp_A(a, b, theta):
    return (a + mp.mpf("0.5")) / mp.tan(theta / 2) - (b + mp.mpf("0.5")) * mp.tan(theta / 2)


def poisson_circle(x, t):
    """P(x, t) = sinh t / (cosh t - cos x) = 1 + 2 sum_{n>=1} e^{-nt} cos(nx),
    with the denominator as 2 (sinh^2(t/2) + sin^2(x/2)), which keeps its
    digits near x = 0 at small t."""
    return np.sinh(t) / (2.0 * (np.sinh(t / 2.0) ** 2 + np.sin(x / 2.0) ** 2))


def poisson_kernel_half(theta, phi, t):
    """The even and the odd Poisson kernel at (-1/2, -1/2) in closed form:
    (P(theta - phi) +- P(theta + phi)) / (4 pi). There the polynomials are
    cosines and the odd companions sines of multiples of theta, and
    sqrt(lam_n) = n, so both series are geometric."""
    near, far = poisson_circle(theta - phi, t), poisson_circle(theta + phi, t)
    return (near + far) / (4.0 * np.pi), (near - far) / (4.0 * np.pi)


def poisson_circle_derivatives(x, t):
    """d/dt and d/dx of P(x, t): (1 - cosh t cos x) / (cosh t - cos x)^2 and
    -sinh t sin x / (cosh t - cos x)^2, with cosh t - cos x as in
    poisson_circle and 1 - cosh t cos x as 2 (cosh t sin^2(x/2) - sinh^2(t/2)),
    which keep their digits near x = 0 at small t."""
    h, s = np.sinh(t / 2.0) ** 2, np.sin(x / 2.0) ** 2
    den = 4.0 * (h + s) ** 2
    return 2.0 * (np.cosh(t) * s - h) / den, -np.sinh(t) * np.sin(x) / den


def poisson_derivatives_half(theta, phi, t):
    """d_t and the chain of order 1 of the even and the odd Poisson kernel at
    (-1/2, -1/2) in closed form (see poisson_kernel_half), as
    {(component, N, M): (kernel, scale)}. d_t of a component is
    (d_t P(theta - phi) +- d_t P(theta + phi)) / (4 pi); the chain is
    +d_theta of the even form and -d_theta of the odd form (A = 0 there).
    The scale, the two terms' absolute values added, bounds the kernel."""
    (t_near, x_near), (t_far, x_far) = (poisson_circle_derivatives(x, t)
                                        for x in (theta - phi, theta + phi))
    out = {}
    for component, sign in (("even", 1.0), ("odd", -1.0)):
        out[component, 0, 1] = ((t_near + sign * t_far) / (4.0 * np.pi),
                                (np.abs(t_near) + np.abs(t_far)) / (4.0 * np.pi))
        out[component, 1, 0] = (sign * (x_near + sign * x_far) / (4.0 * np.pi),
                                (np.abs(x_near) + np.abs(x_far)) / (4.0 * np.pi))
    return out


def cosine_series(c, x, t):
    """S_c(x, t) = sum_{n>=0} e^{-t(n+c)} cos((n+c)x) = Re(e^{c(-t+ix)} /
    (1 - e^{-t+ix})), with |1 - e^{-t+ix}|^2 as expm1(-t)^2 + 4 e^{-t}
    sin^2(x/2), which keeps its digits near x = 0 at small t."""
    num = np.exp(-c * t) * np.cos(c * x) - np.exp(-(c + 1.0) * t) * np.cos((c - 1.0) * x)
    return num / (np.expm1(-t) ** 2 + 4.0 * np.exp(-t) * np.sin(x / 2.0) ** 2)


def even_kernel_half(a, b, theta, phi, t):
    """The even Poisson kernel at (a, b) = (1/2, 1/2), (1/2, -1/2) or
    (-1/2, 1/2) in closed form. There c_n P_n(cos theta) is a multiple of
    sin((n+1) theta) / sin(theta), sin((n+1/2) theta) / sin(theta/2) or
    cos((n+1/2) theta) / cos(theta/2), and sqrt(lam_n) = n + (a+b+1)/2, so
    the series is S_c of theta - phi and theta + phi: (2/pi) (S_1(theta-phi)
    - S_1(theta+phi)) / (sin theta sin phi) at (1/2, 1/2), and (S_1/2(theta-phi)
    -+ S_1/2(theta+phi)) / (2 pi w(theta/2) w(phi/2)) with w = sin, cos."""
    near, far = theta - phi, theta + phi
    if a == b == 0.5:
        return (2.0 / np.pi * (cosine_series(1.0, near, t) - cosine_series(1.0, far, t))
                / (np.sin(theta) * np.sin(phi)))
    sign, w = {(0.5, -0.5): (-1.0, np.sin), (-0.5, 0.5): (1.0, np.cos)}[a, b]
    return ((cosine_series(0.5, near, t) + sign * cosine_series(0.5, far, t))
            / (2.0 * np.pi * w(theta / 2.0) * w(phi / 2.0)))


def riesz_growth_half(theta, phi, t_min, t_max):
    """|int_{t_min}^{t_max} of the odd chain of order 1| at (-1/2, -1/2):
    the odd kernel is (P(theta-phi) - P(theta+phi)) / (4 pi), the chain is
    -d_theta of it (A = 0 there) and int P dt = log(cosh t - cos x), so the
    integral is (1/(4 pi)) |G(theta-phi) - G(theta+phi)| with
    G(x) = sin x / (cosh t_min - cos x) - sin x / (cosh t_max - cos x)."""
    def G(x):
        return np.sin(x) / (np.cosh(t_min) - np.cos(x)) - np.sin(x) / (np.cosh(t_max) - np.cos(x))
    return np.abs(G(theta - phi) - G(theta + phi)) / (4.0 * np.pi)


def appell_f4(a, b, c, cc, x, y):
    """F4(a, b; c, c'; x, y) = sum over m, n of (a)_{m+n} (b)_{m+n} x^m y^n
    / ((c)_m (c')_n m! n!) in float64, elementwise over arrays x, y of one
    shape, for a, b, c, c' > 0 and rho = sqrt(x) + sqrt(y) < 1.

    Summed by levels N = m + n, each from the last by one step in n and,
    for its last term, in m. Every term is positive, and the level sums
    S_N fall at a ratio that tends to rho^2 from above (S_N ~ N^2 rho^{2N}),
    so once q = max(S_N / S_{N-1}, rho^2) < 1 the tail after level N is at
    most S_N q / (1 - q); the sum stops when that is below 2^-53 of it."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    rho2 = (np.sqrt(x) + np.sqrt(y)) ** 2
    if not (rho2 < 1.0).all():
        raise ValueError("F4 needs sqrt(x) + sqrt(y) < 1")
    level, total, last = np.ones((1,) + x.shape), np.ones(x.shape), np.ones(x.shape)
    for N in range(1, 100_000):
        n = np.arange(N, 0, -1.0).reshape((-1,) + (1,) * x.ndim)  # n = N - m at m < N
        grow = (a + N - 1) * (b + N - 1)
        level = np.concatenate([level * (grow * y / ((cc + n - 1) * n)),
                                level[-1:] * (grow * x / ((c + N - 1) * N))])
        S = level.sum(axis=0)
        total += S
        q = np.maximum(rho2, np.divide(S, last, out=np.zeros_like(S), where=last > 0))
        if (q < 1.0).all() and (S * q <= 2.0 ** -53 * (1.0 - q) * total).all():
            return total
        last = S
    raise RuntimeError("F4 sum did not converge")


def bailey_kernel(a, b, component, theta, phi, t):
    """The even or odd Poisson kernel at (a, b) in closed form, by Bailey's
    bilinear generating function for Jacobi polynomials (W. N. Bailey,
    J. London Math. Soc. 13, 1938). With c = (a+b+1)/2, A = (a+b+2)/2,
    r = e^{-t}, c_0^2 = Gamma(a+b+2) / (Gamma(a+1) Gamma(b+1)),
    X = (sin(theta/2) sin(phi/2) / cosh(t/2))^2 and Y the same with cosines:

        even = (c_0^2/2) e^{-tc} (1-r) / (1+r)^{a+b+2} F4(A, A+1/2; a+1, b+1; X, Y)

    plus (c_0^2/2) (e^{-t|c|} - e^{-tc}) when c < 0, as the series' first
    term decays at the speed |c|. The odd kernel is sin(theta) sin(phi) / 4
    times the even one at (a+1, b+1). sqrt(X) + sqrt(Y) = cos((theta-phi)/2)
    / cosh(t/2) < 1, and F4's terms are all positive, so nothing cancels."""
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    if component == "odd":
        return np.sin(theta) * np.sin(phi) / 4.0 * bailey_kernel(
            a + 1.0, b + 1.0, "even", theta, phi, t)
    c, A = (a + b + 1.0) / 2.0, (a + b + 2.0) / 2.0
    c02 = math.exp(math.lgamma(a + b + 2.0) - math.lgamma(a + 1.0) - math.lgamma(b + 1.0))
    h = math.cosh(t / 2.0)
    X = (np.sin(theta / 2.0) * np.sin(phi / 2.0) / h) ** 2
    Y = (np.cos(theta / 2.0) * np.cos(phi / 2.0) / h) ** 2
    front = c02 / 2.0 * math.exp(-t * c) * -math.expm1(-t) / (1.0 + math.exp(-t)) ** (a + b + 2.0)
    first = c02 / 2.0 * (math.exp(-t * abs(c)) - math.exp(-t * c))
    return front * appell_f4(A, A + 0.5, a + 1.0, b + 1.0, X, Y) + first


def gen_kernel_values():
    """Kernel components and chain derivatives at spot points.

    Chains are evaluated by numerical differentiation of the plain series
    (delta = d_theta on even, delta* = -d_theta - A on odd), never through
    term-wise ladder factors, so they are an independent route.
    """
    out = {}
    th, ph, t = mp.mpf("0.7"), mp.mpf("1.9"), mp.mpf("0.8")
    for a, b in PARAM_PAIRS:
        H = lambda x, s=t: mp_even_kernel(a, b, x, ph, s)
        Ht = lambda s: mp_even_kernel(a, b, th, ph, s)
        G = lambda x, s=t: mp_odd_kernel(a, b, x, ph, s)
        out[(a, b, "even")] = mp.nstr(H(th), 20)
        out[(a, b, "odd")] = mp.nstr(G(th), 20)
        out[(a, b, "even_dt")] = mp.nstr(mp.diff(Ht, t), 20)
        # even chain: N=1 is d_theta, N=2 is (-d - A) d
        dH = mp.diff(H, th)
        out[(a, b, "even_chain1")] = mp.nstr(dH, 20)
        d2H = mp.diff(H, th, 2)
        out[(a, b, "even_chain2")] = mp.nstr(-d2H - mp_A(a, b, th) * dH, 20)
        # odd chain: N=1 is -d - A, N=2 is d (-d - A)
        dstar = lambda x: -mp.diff(G, x) - mp_A(a, b, x) * G(x)
        out[(a, b, "odd_chain1")] = mp.nstr(dstar(th), 20)
        out[(a, b, "odd_chain2")] = mp.nstr(mp.diff(dstar, th), 20)
        # mixed plain partials of the shifted even kernel
        Hs = lambda x, y: mp_even_kernel(a + 1, b + 1, x, y, t)
        out[(a, b, "shift_dth_dph")] = mp.nstr(
            mp.diff(Hs, (th, ph), (1, 1)), 20)
    return out


if __name__ == "__main__":
    import pprint
    import sys

    gens = [
        ("NORM_CONSTANTS", gen_norm_constants),
        ("TRIG_POLY_VALUES", gen_trig_poly_values),
        ("DELTA_VALUES", gen_delta_values),
        ("BALL_MEASURES", gen_ball_measures),
        ("KERNEL_VALUES", gen_kernel_values),
    ]
    pick = sys.argv[1] if len(sys.argv) > 1 else None
    for name, gen in gens:
        if pick and name != pick:
            continue
        print(f"{name} = ", end="")
        pprint.pprint({k: v for k, v in gen().items()})
        print()
