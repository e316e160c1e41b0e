"""Quadrature grids in theta and in the semigroup time variable.

Theta grids are Gauss rules under x = cos(theta): exact for products of
basis elements whose combined x-degree (counting each sin(theta) factor as
one) stays below 2*order. The weighted variants divide out psi^2 so the same
nodes integrate against plain dtheta whenever the integrand carries a psi^2
factor, which every function-setting inner product does.

Time grids are log-uniform with trapezoid weights in log t; each constructed
grid is checked against a closed-form incomplete-Gamma integral. A grid at
the default density or above that fails the check doubles its density, up
to three times; a grid that still fails, or a coarser one that fails, is
rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# roots_jacobi imports scipy.linalg on its first call (65-85 ms); loading it
# with the package keeps that cost out of the first check that builds a grid
import scipy.linalg  # noqa: F401
from scipy.special import gammainc, gammaincc, gammaln, roots_jacobi

from .basis import JACOBI_FN, SYM_FN, SYM_POLY, TRIG_POLY, JacobiParams
from .measure import mu_density

# grid tag -> the family paired with that grid's measure: orthonormal, except
# on mu_plus, where the restricted operators read plain inner products
TAG_KINDS = {"mu_plus": TRIG_POLY, "theta_plus": JACOBI_FN,
             "mu_full": SYM_POLY, "theta_full": SYM_FN}

# time grids: the default density in points per decade, and how many times a
# grid at that density or above may double it to pass its quadrature check
_DENSITY = 32
_DOUBLINGS = 3


@dataclass(frozen=True)
class ThetaGrid:
    params: JacobiParams
    tag: str
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def gauss_jacobi_grid(params: JacobiParams, order: int, tag: str = "mu_plus") -> ThetaGrid:
    """Gauss rule with `order` nodes on (0,pi), optionally symmetrized or
    reweighted for plain-dtheta integration."""
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
    return ThetaGrid(params=params, tag=tag, nodes=theta, weights=w)


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
    nodes: np.ndarray = field(init=False, repr=False)
    log_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (0.0 < self.t_min < self.t_max):
            raise ValueError("need 0 < t_min < t_max")
        if not math.isfinite(self.t_max / self.t_min):
            raise ValueError(f"time range [{self.t_min:g}, {self.t_max:g}] is too wide")
        if self.points_per_decade < 4:
            raise ValueError("points_per_decade must be at least 4")
        # a short range can miss the check at the default density: double it
        # (points_per_decade records the density used) a few times before
        # giving up; a coarser density is checked as given
        failure = self._build()
        for _ in range(_DOUBLINGS if self.points_per_decade >= _DENSITY else 0):
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
        # Gregory end correction: adds h^2/12 (g'(a) - g'(b)) with one-sided
        # three-point derivative stencils, lifting the trapezoid rule to
        # fourth order so short grids still pass the validation below
        w[[0, 1, 2]] += np.array([-3.0, 4.0, -1.0]) * h / 24.0
        w[[-1, -2, -3]] += np.array([-3.0, 4.0, -1.0]) * h / 24.0
        nodes = np.exp(u)
        # read-only: one grid may be shared, e.g. the operators' default
        nodes.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "log_weights", w)
        # int t^{W-1} e^{-2t} dt over [t_min, t_max], closed form via the
        # regularized incomplete Gamma: from 2 t_min >= W on, the lower
        # values sit near 1 and lose the digits, so the upper ones are used;
        # a t^W that overflows makes the sum NaN, which fails the comparison
        for W in (1.0, 2.0):
            with np.errstate(over="ignore", invalid="ignore"):
                got = self.integrate(np.exp(-2.0 * self.nodes), W)
            lo, hi = 2.0 * self.t_min, 2.0 * self.t_max
            if lo >= W:
                mass = gammaincc(W, lo) - gammaincc(W, hi)
            else:
                mass = gammainc(W, hi) - gammainc(W, lo)
            want = math.exp(gammaln(W) - W * math.log(2.0)) * mass
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
        return np.max(np.abs(samples), axis=-1)
    if p == 2:
        return np.sqrt(grid.integrate(np.abs(samples) ** 2, W))
    if p == 1:
        return grid.integrate(np.abs(samples), W)
    raise ValueError("p must be 1, 2, or inf")
