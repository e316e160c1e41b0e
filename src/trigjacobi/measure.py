"""The measure mu+ on (0,pi), interval measures, and power-weight classes.

The density of mu+ is sin(t/2)^(2a+1) cos(t/2)^(2b+1); under u = sin^2(t/2)
an interval measure becomes an incomplete Beta integral, which gives it in
closed form. Membership tests for the Muckenhoupt-type class over
((0,pi), mu+) and for its psi-transferred counterpart over ((0,pi), dt) are
exact inequalities in (r, s, p), not numerical checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaln

from .basis import JacobiParams, _half_angle_power


@dataclass(frozen=True)
class PowerWeight:
    """w(t) = |sin(t/2)|^r * cos(t/2)^s; r and s may be arrays of powers
    for the membership tests."""

    r: float
    s: float

    def __call__(self, theta) -> np.ndarray:
        return _half_angle_power(theta, self.r, self.s)

    def shifted(self, dr: float, ds: float) -> "PowerWeight":
        return PowerWeight(self.r + dr, self.s + ds)


def mu_density(params: JacobiParams, theta) -> np.ndarray:
    """Density of the symmetric measure at theta in (-pi,pi): psi(theta)^2."""
    return _half_angle_power(theta, 2.0 * params.alpha + 1.0, 2.0 * params.beta + 1.0)


def interval_measure(params: JacobiParams, lo, hi) -> float | np.ndarray:
    """mu+ of (lo, hi) within [0, pi], elementwise over arrays of endpoints."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    if not np.all((0.0 <= lo) & (lo <= hi) & (hi <= math.pi + 1e-15)):
        raise ValueError("interval must satisfy 0 <= lo <= hi <= pi")
    hi = np.minimum(hi, math.pi)
    a, b = params.alpha, params.beta
    # u = sin^2(t/2) turns the density into u^a (1-u)^b du; evaluate the
    # right half through the complementary v = cos^2(t/2) form so the
    # regularized-Beta difference never cancels near a full endpoint. An
    # interval on one side of pi/2 gets an empty, exactly zero, other half.
    scale = math.exp(betaln(a + 1.0, b + 1.0))
    half = math.pi / 2.0
    left = betainc(a + 1.0, b + 1.0, np.sin(np.minimum([hi, lo], half) / 2.0) ** 2)
    # cos(t/2) = sin((pi-t)/2), and the subtraction pi - t is exact
    # where it matters, so v vanishes exactly at t = pi
    right = betainc(b + 1.0, a + 1.0,
                    np.sin((math.pi - np.maximum([lo, hi], half)) / 2.0) ** 2)
    out = scale * ((left[0] - left[1]) + (right[0] - right[1]))
    return float(out) if out.ndim == 0 else out


def ball_measure(params: JacobiParams, center, radius) -> float | np.ndarray:
    """mu+ of the balls (center - radius, center + radius) clipped to (0,pi), elementwise."""
    center, radius = np.asarray(center, dtype=float), np.asarray(radius, dtype=float)
    # NaN fails both checks
    if not (np.all((0.0 <= center) & (center <= math.pi)) and np.all(radius > 0.0)):
        raise ValueError("ball centers must lie in [0,pi] and radii be positive")
    return interval_measure(params, np.maximum(center - radius, 0.0),
                            np.minimum(center + radius, math.pi))


def _in_class(params: JacobiParams, weight: PowerWeight, p,
              lower, upper) -> bool | np.ndarray:
    """lower(c) < x < upper(c) for (c, x) = (alpha, r) and (beta, s), the upper
    bound closed at p = 1; elementwise over arrays of r, s and p, and a
    Python bool on scalars, which the JSON reports take."""
    q = np.asarray(p)
    if not np.all((1.0 <= q) & (q < math.inf)):
        raise ValueError("p must satisfy 1 <= p < infinity")
    inside = True
    for c, x in ((params.alpha, weight.r), (params.beta, weight.s)):
        inside = inside & (x > lower(c)) & np.where(q == 1.0, x <= upper(c), x < upper(c))
    return bool(inside) if np.ndim(inside) == 0 else inside


def ap_membership(params: JacobiParams, weight: PowerWeight, p) -> bool | np.ndarray:
    """Power-weight criterion for the Muckenhoupt-type class over ((0,pi), mu+).

    For 1 < p < infinity: -(2a+2) < r < (2a+2)(p-1) and the same in (b, s).
    At p = 1 the upper bounds close up (r <= 0, s <= 0). Elementwise over
    arrays of r, s and p.
    """
    return _in_class(params, weight, p, lambda c: -(2 * c + 2),
                     lambda c: (2 * c + 2) * (p - 1))


def bp_membership(params: JacobiParams, weight: PowerWeight, p) -> bool | np.ndarray:
    """Criterion for the transferred class over ((0,pi), dt).

    For 1 < p < infinity: -1-(a+1/2)p < r < p-1+(a+1/2)p, same in (b, s);
    at p = 1 the upper bounds close up. Equivalent formulation:
    w_{r,s} belongs here iff w shifted by (a+1/2)(p-2), (b+1/2)(p-2) is in
    the mu+ class, which the tests exercise directly. Elementwise over
    arrays of r, s and p.
    """
    return _in_class(params, weight, p, lambda c: -1 - (c + 0.5) * p,
                     lambda c: p - 1 + (c + 0.5) * p)


def unweighted_bp_window(params: JacobiParams) -> tuple[float, float]:
    """Range of 1/p (as an interval) for which the constant weight passes
    the dt-class test, closed on the right exactly when p = 1 is admissible.

    For min(a,b) >= -1/2 this is all of (0, 1]; otherwise the window is
    -min(a,b)-1/2 < 1/p < min(a,b)+3/2.
    """
    m = min(params.alpha, params.beta)
    if m >= -0.5:
        return (0.0, 1.0)
    return (-m - 0.5, m + 1.5)


def unweighted_bp_admissible(params: JacobiParams, p: float) -> bool:
    """Analytic form of bp_membership for the constant weight.

    True for every p in [1, infinity) iff min(a,b) >= -1/2; otherwise exactly
    on the open window -min(a,b)-1/2 < 1/p < min(a,b)+3/2. Derived from the
    power-weight inequalities independently of bp_membership's code path, so
    the two can be compared.
    """
    if not (1.0 <= p < math.inf):
        raise ValueError("p must satisfy 1 <= p < infinity")
    m = min(params.alpha, params.beta)
    if m >= -0.5:
        return True
    return -m - 0.5 < 1.0 / p < m + 1.5
