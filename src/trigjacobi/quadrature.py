"""Quadrature grids in theta and in the semigroup time variable.

Theta grids are Gauss rules under x = cos(theta): exact for products of
basis elements whose combined x-degree (counting each sin(theta) factor as
one) stays below 2*order. The weighted variants divide out psi^2 so the same
nodes integrate against plain dtheta whenever the integrand carries a psi^2
factor, which every function-setting inner product does.

Time grids are log-uniform in u = log t, with trapezoid weights and
Gregory's end corrections through fifth differences, which make the rule
sixth order at the ends of a smooth integrand: 16 points per decade on
[5e-3, 40] integrate the grid's own check within 2e-10. Each constructed
grid is checked against the elementary integrals of t^{W-1} e^{-2t}, W = 1
and 2. Every grid starts at 16 points per decade unless asked for another
density; one that fails the check doubles its density, up to four times
(16 to 256), and one that still fails is rejected. So TGrid(t_min, 40)
takes 32, 64, 128 and 256 from t_min of about 0.67, 2.9, 5.9 and 9.6 on and
raises from about 17.4, while a range as narrow as [39, 40] passes at 16.

t_norm reads samples on a grid. The L^1 norm integrates |f| and corrects the
rule at each sign change of f, where |f| has a kink that the rule does not
see; the sup norm takes the larger of the grid maximum and the peak of a
quartic through log |f| around an interior grid argmax, so it is never below
the grid maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# roots_jacobi imports scipy.linalg on its first call (65-85 ms); loading it
# with the package keeps that cost out of the first check that builds a grid
import scipy.linalg  # noqa: F401
from scipy.special import roots_jacobi

from . import basis
from .basis import JACOBI_FN, SYM_FN, SYM_POLY, TRIG_POLY, JacobiParams
from .measure import mu_density

# grid tag -> the family paired with that grid's measure: orthonormal, except
# on mu_plus, where the restricted operators read plain inner products
TAG_KINDS = {"mu_plus": TRIG_POLY, "theta_plus": JACOBI_FN,
             "mu_full": SYM_POLY, "theta_full": SYM_FN}

# time grids: the default density in points per decade, and how many times a
# grid may double its density to pass its quadrature check
_DENSITY = 16
_DOUBLINGS = 4
# Gregory's end corrections through fifth differences, coefficients 1/12,
# 1/24, 19/720, 3/160 and 863/60480 (Fornberg, SIAM Review 63, 2021),
# written as weights on the six nodes nearest an end
_GREGORY = np.array([-11153.0, 23719.0, -22742.0, 14762.0, -5449.0, 863.0]) / 60480.0
# the monomial coefficients of the cubic through values at 0, 1, 2 and 3
_CUBIC = np.linalg.inv(np.vander(np.arange(4.0), increasing=True))


@dataclass(frozen=True, eq=False)
class ThetaGrid:
    """A Gauss rule of `order` nodes on (0,pi), mirrored on the full tags; its
    arrays are read-only, so the element tables it holds cannot go stale."""

    params: JacobiParams
    tag: str
    order: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    def table(self, kind: str) -> np.ndarray:
        """Elements n < order (2 * order on the symmetrized kinds) of a family
        kind at the grid's parameters and nodes, read-only, built on first read."""
        if kind not in self._tables:
            size = 2 * self.order if kind in (SYM_POLY, SYM_FN) else self.order
            self._tables[kind] = basis.basis_matrix(self.params, kind, np.arange(size), self.nodes)
            self._tables[kind].setflags(write=False)
        return self._tables[kind]


def gauss_jacobi_grid(params: JacobiParams, order: int, tag: str = "mu_plus") -> ThetaGrid:
    """Gauss rule with `order` nodes on (0,pi), optionally symmetrized or
    reweighted for plain-dtheta integration; its nodes and weights are
    read-only, and each family's table is built on its first read, not here."""
    if tag not in TAG_KINDS:
        raise ValueError(f"tag must be one of {tuple(TAG_KINDS)}")
    if order < 1:
        raise ValueError("order must be positive")
    x, w = roots_jacobi(order, params.alpha, params.beta)
    # dmu+ = 2^{-a-b-1} (1-x)^a (1+x)^b dx under x = cos(theta)
    w = w * 2.0 ** (-params.alpha - params.beta - 1.0)
    theta = np.arccos(x)[::-1]
    w = w[::-1]
    if tag in ("theta_plus", "theta_full"):
        w = w / mu_density(params, theta)
    if tag in ("mu_full", "theta_full"):
        theta = np.concatenate([-theta[::-1], theta])
        w = np.concatenate([w[::-1], w])
    theta.setflags(write=False)
    w.setflags(write=False)
    return ThetaGrid(params=params, tag=tag, order=order, nodes=theta, weights=w)


def _values_on(grid: ThetaGrid, f) -> np.ndarray:
    vals = f(grid.nodes) if callable(f) else np.asarray(f)
    if vals.shape[-1] != grid.nodes.shape[0]:
        raise ValueError("sample array does not match the grid")
    return vals


def inner_product(grid: ThetaGrid, f, g) -> float | complex | np.ndarray:
    """<f, g> against the grid's underlying measure; conjugates g."""
    fv = _values_on(grid, f)
    gv = _values_on(grid, g)
    return (fv * np.conj(gv)) @ grid.weights


@dataclass(frozen=True)
class TGrid:
    """Log-uniform time grid on [t_min, t_max]."""

    t_min: float = 1e-4
    t_max: float = 40.0
    points_per_decade: int = _DENSITY
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    log_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.t_min < self.t_max):
            raise ValueError("need 0 < t_min < t_max")
        if not math.isfinite(self.t_max / self.t_min):
            raise ValueError(f"time range [{self.t_min:g}, {self.t_max:g}] is too wide")
        if self.points_per_decade < 4:
            raise ValueError("points_per_decade must be at least 4")
        # a short range can miss the check: double the density
        # (points_per_decade records the density used) a few times before
        # giving up
        failure = self._build()
        for _ in range(_DOUBLINGS):
            if failure is None:
                break
            object.__setattr__(self, "points_per_decade", 2 * self.points_per_decade)
            failure = self._build()
        if failure is not None:
            raise ValueError(failure)

    def _build(self) -> str | None:
        """Set the nodes and weights; the quadrature check's failure, if any."""
        decades = math.log10(self.t_max / self.t_min)
        npts = max(int(round(decades * self.points_per_decade)) + 1, 9)
        u = np.linspace(math.log(self.t_min), math.log(self.t_max), npts)
        h = u[1] - u[0]
        w = np.full(npts, h)
        w[0] = w[-1] = h / 2.0
        # Gregory's end corrections through fifth differences, the same six
        # weights mirrored at each end: they cancel the trapezoid rule's end
        # errors through order h^6, so 16 points per decade pass the check
        w[:6] += _GREGORY * h
        w[-6:] += _GREGORY[::-1] * h
        nodes = np.exp(u)
        # read-only: one grid may be shared, e.g. the operators' default
        nodes.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "log_weights", w)
        # int t^{W-1} e^{-2(t-a)} dt over [a, b] = [t_min, t_max] in closed
        # form, with D = 1 - e^{-2(b-a)}, so that neither end cancels the
        # other and nothing underflows at a large t_min; a t^W that overflows
        # makes the sum NaN, which fails the comparison
        a, b = self.t_min, self.t_max
        D = -math.expm1(-2.0 * (b - a))
        for W, want in ((1.0, D / 2.0),
                        (2.0, ((1.0 + 2.0 * a) * D - 2.0 * (b - a) * (1.0 - D)) / 4.0)):
            with np.errstate(over="ignore", invalid="ignore"):
                got = self.integrate(np.exp(-2.0 * (self.nodes - a)), W)
            if not abs(got - want) <= 1e-6 * abs(want):
                return (f"time grid on [{self.t_min:g}, {self.t_max:g}] fails its "
                        f"quadrature check at W={W} with {self.points_per_decade} "
                        f"points per decade: {float(got)!r} vs {float(want)!r}")
        return None

    def integrate(self, samples, W: float) -> float | np.ndarray:
        """int f(t) t^{W-1} dt with f given by samples on the nodes.

        In u = log t the integrand becomes f(e^u) e^{uW}, handled by the
        trapezoid weights; samples may carry leading axes.
        """
        samples = np.asarray(samples)
        if samples.shape[-1] != self.nodes.shape[0]:
            raise ValueError("sample array does not match the time grid")
        return samples @ (self.log_weights * self.nodes**W)


def t_norm(grid: TGrid, samples, p: float, W: float = 1.0) -> float | np.ndarray:
    """L^p norm in t against t^{W-1} dt (p = inf ignores W).

    The p = 2, W = 2M+2N case is the square-function norm; p = inf is the
    maximal-operator sup; p = 1 shows up in kernel size integrals.
    """
    samples = np.asarray(samples)
    if p == math.inf:
        return _peak(np.abs(samples))
    if p == 2:
        return np.sqrt(grid.integrate(np.abs(samples) ** 2, W))
    if p == 1:
        return grid.integrate(np.abs(samples), W) + _kink_correction(grid, samples, W)
    raise ValueError("p must be 1, 2, or inf")


def _kink_correction(grid: TGrid, samples: np.ndarray, W: float) -> float | np.ndarray:
    """What the grid rule on |f| misses at the sign changes of f.

    In u = log t the integrand g = f t^W changes sign in a node interval
    [u_i, u_i + h] with g(u_i) g(u_i + h) < 0, at a zero z = u_i + s h of the
    cubic through g at the interval's nodes and one on either side, and
    |g| has a kink there. By the Euler-Maclaurin formula for a function
    with a kink, the trapezoid rule on |g| misses its integral by
    h^2 B2(s) |g'(z)| - (h^3 / 3) B3(s) sign(g'(z)) g''(z) + O(h^4), with
    the Bernoulli polynomials B2 and B3. Gregory's corrections at an end
    read g with the sign it has at that end, as the smooth integrand there.
    """
    g = samples * grid.nodes**W
    n, h = g.shape[-1], math.log(grid.nodes[1] / grid.nodes[0])
    flat = g.reshape(-1, n)
    out = np.zeros(flat.shape[0])
    with np.errstate(invalid="ignore"):
        rows, i = np.nonzero(flat[:, :-1] * flat[:, 1:] < 0.0)
    # the cubic through four nodes around [u_i, u_i + h], in units of h from
    # the first of them, and its zero in the interval by Newton steps from
    # the zero of the chord
    first = np.clip(i - 1, 0, n - 4)
    c = flat[rows[:, None], first[:, None] + np.arange(4)] @ _CUBIC.T
    x0 = i - first
    ya, yb = flat[rows, i], flat[rows, i + 1]
    x = x0 + ya / (ya - yb)
    for _ in range(4):
        x = np.clip(x - (c[:, 0] + x * (c[:, 1] + x * (c[:, 2] + x * c[:, 3])))
                    / (c[:, 1] + x * (2.0 * c[:, 2] + 3.0 * x * c[:, 3])), x0, x0 + 1)
    slope = c[:, 1] + x * (2.0 * c[:, 2] + 3.0 * x * c[:, 3])
    curve = 2.0 * c[:, 2] + 6.0 * x * c[:, 3]
    s = x - x0
    b2, b3 = s * s - s + 1.0 / 6.0, s * (s - 0.5) * (s - 1.0)
    np.add.at(out, rows, h * (b2 * np.abs(slope) - b3 * np.sign(slope) * curve / 3.0))
    left, right = flat[:, :6], flat[:, -6:]
    out += (np.sign(left[:, :1]) * left - np.abs(left)) @ (h * _GREGORY)
    out += (np.sign(right[:, -1:]) * right - np.abs(right)) @ (h * _GREGORY[::-1])
    return out.reshape(g.shape[:-1])[()]


def _peak(a: np.ndarray) -> float | np.ndarray:
    """The sup over t of samples `a` >= 0: the larger of the grid maximum and
    the peak of the quartic through log a, in u = log t, at the grid argmax
    and two nodes on either side, found by Newton steps from the vertex of
    its parabola and kept within a node of the argmax. An argmax within two
    nodes of an end keeps the grid maximum; a NaN sample is the argmax, so it
    makes the sup NaN."""
    top = np.max(a, axis=-1)
    k = np.argmax(a, axis=-1)[..., None]
    inner = np.clip(k, 2, a.shape[-1] - 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        m2, m1, y, p1, p2 = np.moveaxis(
            np.log(np.take_along_axis(a, inner + np.arange(-2, 3), axis=-1)), -1, 0)
        # the quartic's derivatives at the argmax, in units of the node step
        d1 = (8.0 * (p1 - m1) - (p2 - m2)) / 12.0
        d2 = (16.0 * (p1 + m1) - (p2 + m2) - 30.0 * y) / 12.0
        d3 = (p2 - m2) / 2.0 - (p1 - m1)
        d4 = p2 + m2 - 4.0 * (p1 + m1) + 6.0 * y
        v = -d1 / d2
        for _ in range(4):
            v -= (d1 + v * (d2 + v * (d3 / 2.0 + v * d4 / 6.0))) / (d2 + v * (d3 + v * d4 / 2.0))
        v = np.clip(v, -1.0, 1.0)
        peak = np.exp(y + v * (d1 + v * (d2 / 2.0 + v * (d3 / 6.0 + v * d4 / 24.0))))
    # fmax keeps the grid maximum where the quartic is undefined (a zero sample)
    return np.where(k[..., 0] == inner[..., 0], np.fmax(top, peak), top)[()]
