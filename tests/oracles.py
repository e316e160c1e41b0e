"""High-precision reference values, independent of the package implementation.

Everything here is computed with mpmath from integral or hypergeometric
definitions, not from the recurrences and ladder identities the package uses,
or, at half-integer parameters, from elementary closed forms in NumPy.
Run as a script to regenerate the frozen dictionaries pasted into the tests:

    python tests/oracles.py
"""

from __future__ import annotations

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
