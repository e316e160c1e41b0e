"""Certification harness: sharp constants, kernel estimates, identities.

Every check produces an EstimateReport: the claim it tested, the estimated
constant (a sup of LHS/RHS ratios, or a max error), the tolerance when the
claim carries an explicit one, and a drift diagnostic. Drift is the ratio
between the constant re-estimated on a refined sweep and the base constant;
the refined sweep holds the base one, so it is at least 1, and a ratio
check passes only while it stays below 2, the sign that the sup estimate
has converged rather than being an artifact of the sampling. Every
constant is a NumPy max over the check's errors or ratios
(ratio_sweep_report and _tolerance_report), so a NaN anywhere makes the
constant NaN and fails the claim.

Size and smoothness estimates are swept over dyadic bands of the distance
|theta - phi|, with log-spaced centers accumulating at both endpoints where
the measure degenerates. The kernel sweeps are one table of claims, a row
each (_sweep_claims), that one loop (_sweep) samples and reduces: one
eval_kernels call takes each distinct kernel job on SweepSpec.pairs(), each
pair of the refined sweep once, and one more call each moved point set.
Time integrals run over a validated log grid (quadrature.TGrid); the
truncation to [t_min, t_max] only underestimates left-hand sides, so upper
bound claims are never helped by it.

Reports serialize to a versioned JSON document. Wall-clock data stays out of
the payload unless explicitly requested, keeping reruns byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.special import binom, eval_jacobi, gammaln

from .basis import (
    SYM_FN,
    SYM_POLY,
    JacobiParams,
    basis_matrix,
    coeff_b,
    eigenvalue,
    half_index,
    jacobi_operator_rows,
)
from .kernels import (
    DEFAULT_TRUNCATION,
    DiscreteMeasure,
    KernelHandle,
    TruncationConfig,
    eval_kernels,
    kernel_derivative,
    partial_derivative_kernel,
    poisson_kernel,
)
from .measure import (
    PowerWeight,
    ap_membership,
    ball_measure,
    bp_membership,
    unweighted_bp_admissible,
    unweighted_bp_window,
)
from .operators import (
    GridFunction,
    OperatorSpec,
    apply_operator,
    grid_function,
    restricted_family,
    spectral_table,
)
from .quadrature import TAG_KINDS, TGrid, gauss_jacobi_grid, t_norm

SCHEMA_VERSION = 1

SUITES = ("identities", "sharp-constants", "standard-estimates", "domination",
          "lemma-ratios", "lp-sweep", "all")


# the largest band distance and the finest band kept
_D_MAX = math.pi / 2.0
_GUARD = 1.5e-2


@dataclass(frozen=True)
class SweepSpec:
    """Geometry of a kernel-estimate sweep.

    Distances run over `levels` dyadic bands below pi/2. A band's first
    coordinates run over two mirrored half bands of n_theta log-spaced
    points each, accumulating at both interval endpoints; the two share the
    band's midpoint, so a band holds 2 * n_theta - 1 pairs. The refined
    sweep puts the geometric midpoint between each two adjacent points of a
    half band: 4 * n_theta - 3 pairs, every base pair among them bit for bit
    (pairs() holds 105 in QUICK_SWEEP, 270 in FULL_SWEEP). Bands finer than
    1.5e-2 are skipped: there the truncated time integral no longer resolves
    the near-diagonal kernel.
    """

    n_theta: int = 12
    levels: int = 6
    t_min: float = 5e-3
    t_max: float = 40.0

    def tgrid(self) -> TGrid:
        """The time grid on [t_min, t_max] at TGrid's own density rule."""
        return TGrid(self.t_min, self.t_max)

    def truncation(self) -> TruncationConfig:
        """The kernels' truncation: the default, whose term cap alone limits t."""
        return DEFAULT_TRUNCATION

    def refined(self) -> "SweepSpec":
        return _RefinedSweep(self.n_theta, self.levels, self.t_min, self.t_max)

    def distances(self) -> list[float]:
        """The distance of each usable dyadic band."""
        return [d for d in (_D_MAX * 2.0 ** (-j) for j in range(self.levels)) if d >= _GUARD]

    def _half_band(self, d: float) -> np.ndarray:
        """The lower half band's first coordinates, ascending to the midpoint."""
        return np.geomspace(min(_GUARD, 0.2 * (math.pi - d)), 0.5 * (math.pi - d),
                            self.n_theta)

    def bands(self) -> list[tuple]:
        """(distance, theta, phi) per usable dyadic band, theta ascending."""
        out = []
        for d in self.distances():
            half = self._half_band(d)
            theta = np.clip(_mirror(half, (math.pi - d) - half), 1e-12, math.pi - d - 1e-12)
            out.append((d, theta, theta + d))
        return out

    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(distance, theta, phi) per pair of the refined sweep, band after
        band; the base sweep's pairs are among them (see _base_mask)."""
        bands = self.refined().bands()
        return (np.concatenate([np.full(th.size, d) for d, th, _ in bands]),
                np.concatenate([th for _, th, _ in bands]),
                np.concatenate([ph for _, _, ph in bands]))

    def _base_mask(self) -> np.ndarray:
        """Which pairs of a band of pairs() the base sweep holds: every second
        point of each refined half band."""
        every_second = np.arange(2 * self.n_theta - 1) % 2 == 0
        return _mirror(every_second, every_second)


class _RefinedSweep(SweepSpec):
    """The refined sweep of a SweepSpec with the same fields."""

    def _half_band(self, d: float) -> np.ndarray:
        base = super()._half_band(d)
        half = np.empty(2 * base.size - 1)
        half[0::2] = base
        half[1::2] = np.sqrt(base[:-1] * base[1:])
        return half


def _mirror(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """A lower half band and the mirror images `upper` of its points: a half
    band of two or more points ends at the midpoint, where its mirror image
    starts, and that pair is kept once."""
    return np.concatenate([lower, upper[::-1][1 if lower.size > 1 else 0:]])


QUICK_SWEEP = SweepSpec(n_theta=6, levels=5)
FULL_SWEEP = SweepSpec(n_theta=12, levels=6)


@dataclass
class EstimateReport:
    claim: str
    passed: bool
    constant: float
    tolerance: float | None = None
    drift: float | None = None
    levels: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "passed": bool(self.passed),
            "constant": float(self.constant),
            "tolerance": self.tolerance,
            "drift": self.drift,
            "levels": self.levels,
            "details": self.details,
        }


def suite_report(suite: str, params: JacobiParams | None, profile: str,
                 reports: list[EstimateReport], timings: dict | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "profile": profile,
        "alpha": None if params is None else params.alpha,
        "beta": None if params is None else params.beta,
        "checks": [r.to_dict() for r in reports],
        "passed": all(r.passed for r in reports),
    }
    if timings is not None:
        doc["timings"] = timings
    return doc


def report_json(doc: dict) -> str:
    """The report as strict JSON: a NaN or an infinity, such as the constant
    of a claim that failed on one, is written as the string "NaN",
    "Infinity" or "-Infinity"."""
    return json.dumps(_json_safe(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


# --- ratio sweeps -------------------------------------------------------------

def ratio_sweep_report(claim: str, r: np.ndarray, spec: SweepSpec,
                       details: dict | None = None) -> EstimateReport:
    """Split ratios LHS/RHS on spec.pairs() into the base sweep's per-band
    maxima and the sup of each sweep.

    Passes when both sups are finite and the refined one stays within a
    factor 2 of the base one; it holds the base pairs, so the drift is at
    least 1. The drift is NaN when a ratio is, 1 when both sups are 0 and
    infinite when only the refined one is positive.
    """
    distances = spec.distances()
    mask = spec._base_mask()
    size = len(distances) * mask.size
    if len(r) != size:
        raise ValueError(f"{len(r)} ratios for the sweep's {size} pairs")
    base = np.reshape(r, (len(distances), -1))[:, mask]
    levels = [{"distance": d, "pairs": base.shape[1], "max_ratio": float(np.max(b))}
              for d, b in zip(distances, base)]
    constant, top = float(np.max(base)), float(np.max(r))
    if math.isnan(top):
        drift = math.nan
    elif constant > 0.0:
        drift = top / constant
    else:
        drift = math.inf if top > 0.0 else 1.0
    return EstimateReport(claim=claim, passed=math.isfinite(top) and 0.5 < drift < 2.0,
                          constant=top, drift=drift, levels=levels,
                          details=details or {})


def _full(profile: str) -> bool:
    """Whether a profile is the full one; any but "quick" and "full" raises."""
    if profile not in ("quick", "full"):
        raise ValueError("profile must be 'quick' or 'full'")
    return profile == "full"


def _tolerance_report(claim: str, errors, tol: float, **details) -> EstimateReport:
    """A claim whose constant is the largest of its errors and which passes
    while that stays within tol."""
    constant = float(np.max(errors))
    return EstimateReport(claim=claim, passed=constant <= tol, constant=constant,
                          tolerance=tol, details=details)


# --- sharp constants ----------------------------------------------------------

def _sharp_ratios(theta, phi) -> tuple:
    """The ratios of the three sharp constants at (theta, phi), from the
    shared parts w = (theta+phi)(2 pi - theta - phi) and |theta - phi|:
    a = |theta - phi| phi (pi - phi) / w^2,
    b = theta phi (pi - theta) (pi - phi) / w^2 and c = |theta - phi| / w,
    in place where the shapes allow."""
    s = theta + phi
    d = np.subtract(theta, phi)
    np.abs(d, out=d)
    w = 2.0 * math.pi - s
    w *= s
    q = phi * (math.pi - phi)
    a = np.multiply(d, q, out=s)
    d /= w
    w *= w
    a /= w
    b = theta * (math.pi - theta) * q
    b /= w
    return a, b, d


def check_sharp_constants(ngrid: int = 1024) -> list[EstimateReport]:
    """The three sharp constants 1/(4 pi), 1/16, 1/pi.

    Each is certified two-sided: the ratio never exceeds the constant on a
    dense grid, and an explicit maximizing sequence approaches it to 1e-9
    relative. The middle constant is attained identically on the diagonal.
    """
    x = np.linspace(0.0, math.pi, ngrid + 2)[1:-1]
    eps, rel_tol = 1e-11, 1e-9
    out = []

    # the grid in blocks of 16 rows, so no ngrid x ngrid array is held and a
    # block's arrays stay in cache (64 rows took twice as long); np.max keeps
    # a NaN of any block
    grid_max = np.max([[np.max(r) for r in _sharp_ratios(x[i:i + 16, None], x[None, :])]
                       for i in range(0, x.size, 16)], axis=0)
    # the maximizing sequences: a as theta = eps^2 and phi = eps go to 0, b on
    # the diagonal, c as theta -> 0 and phi -> pi
    approach = [ratio[0] for ratio in (
        _sharp_ratios(np.array([eps ** 2]), np.array([eps]))[0],
        _sharp_ratios(np.array([1.3]), np.array([1.3]))[1],
        _sharp_ratios(np.array([eps]), np.array([math.pi - eps]))[2])]
    constants = (1.0 / (4.0 * math.pi), 1.0 / 16.0, 1.0 / math.pi)
    for claim, C, top, near in zip(("sharp-constant-a", "sharp-constant-b",
                                    "sharp-constant-c"), constants, grid_max, approach):
        rep = _tolerance_report(claim, top / C, 1.0 + 1e-12, constant=C,
                                grid_max=float(top), approach_value=float(near),
                                approach_rel_error=abs(near - C) / C)
        rep.passed = rep.passed and abs(near - C) <= rel_tol * C
        out.append(rep)

    out.append(_tolerance_report("sharp-constant-b-diagonal-identity",
                                 np.abs(_sharp_ratios(x, x)[1] - 1.0 / 16.0) * 16.0,
                                 rel_tol, points=int(x.size)))
    return out


def check_ball_comparability(params: JacobiParams, spec: SweepSpec,
                             profile: str = "quick") -> list[EstimateReport]:
    """Shifted-parameter ball measures against the polynomial weight
    ((theta+phi)(2 pi - theta - phi))^{2 xi}, two-sided, at xi = 0.5, 1 and
    2 in the full profile and xi = 1 in the quick one."""
    d, theta, phi = spec.pairs()
    base = ball_measure(params, theta, d)
    out = []
    for xi in (0.5, 1.0, 2.0) if _full(profile) else (1.0,):
        up = ball_measure(JacobiParams(params.alpha + xi, params.beta + xi), theta, d)
        poly = ((theta + phi) * (2.0 * math.pi - theta - phi)) ** (2.0 * xi)
        ratio = up / (poly * base)
        tag = f"xi{xi:g}".replace(".", "p")
        out.append(ratio_sweep_report(f"ball-comparability-upper/{tag}", ratio,
                                      spec, details={"xi": xi}))
        out.append(ratio_sweep_report(f"ball-comparability-lower/{tag}",
                                      1.0 / ratio, spec, details={"xi": xi}))
    return out


# --- identity suite -----------------------------------------------------------

def check_orthonormality(params: JacobiParams, nmax: int) -> list[EstimateReport]:
    tol = 1e-8
    out = []
    for tag, kind in TAG_KINDS.items():
        grid = gauss_jacobi_grid(params, 2 * nmax + 8, tag)
        V = basis_matrix(params, kind, np.arange(nmax + 1), grid)
        G = (V * grid.weights) @ V.T
        out.append(_tolerance_report(f"orthonormality/{kind}",
                                     np.abs(G - np.eye(nmax + 1)), tol, nmax=nmax))
    return out


def check_eigen_residuals(params: JacobiParams) -> EstimateReport:
    nmax, tol = 12, 1e-6
    theta = np.linspace(-math.pi + 0.05, math.pi - 0.05, 121)
    theta = theta[np.abs(theta) > 1e-3]
    n = np.arange(nmax + 1)
    JV, V = jacobi_operator_rows(params, n, theta)
    lam = eigenvalue(params, half_index(n))
    errors = np.max(np.abs(JV - lam[:, None] * V), axis=1) / (1.0 + lam)
    return _tolerance_report("eigen-residual", errors, tol, nmax=nmax)


def check_conjugation(params: JacobiParams) -> EstimateReport:
    """First-order structure on the function side: with b = psi'/psi,
    (d - b) Theta_{2k} and (-d - b) Theta_{2k+1} reproduce the ladder of the
    polynomial side. Derivatives are taken by central differences, so the
    check does not reuse the ladder code it certifies."""
    theta = np.linspace(0.15, math.pi - 0.15, 41)
    nmax, tol, h = 10, 1e-6, 1e-6
    rows = np.arange(nmax + 2)
    V = basis_matrix(params, SYM_FN, rows, theta)
    deriv = (basis_matrix(params, SYM_FN, rows, theta + h)
             - basis_matrix(params, SYM_FN, rows, theta - h)) / (2.0 * h)
    bb = coeff_b(params, theta)
    errors = []
    for n in range(1, nmax + 1):
        # ladder coefficients spelled out rather than routed through the code
        # under test: even steps go down with -r_k, odd steps up with -r_{k+1}
        if n % 2 == 0:
            got = deriv[n] - bb * V[n]
            want = -math.sqrt(eigenvalue(params, n // 2) - params.lam0) * V[n - 1]
        else:
            got = -deriv[n] - bb * V[n]
            want = -math.sqrt(eigenvalue(params, (n + 1) // 2) - params.lam0) * V[n + 1]
        errors.append(np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want))))
    return _tolerance_report("conjugation-ladder", errors, tol, nmax=nmax, fd_step=h)


def check_semigroup_law(params: JacobiParams) -> EstimateReport:
    """Composition through mu+ quadrature; the doubled half-line kernels are
    the actual semigroup there."""
    tol = 1e-6
    grid = gauss_jacobi_grid(params, 64, "mu_plus")
    t1, t2 = 0.35, 0.6
    errors = []
    for component in ("even", "odd"):
        h = poisson_kernel(params, component)
        K1 = 2.0 * h.eval_matrix(grid.nodes, grid.nodes, t1)
        K2 = 2.0 * h.eval_matrix(grid.nodes, grid.nodes, t2)
        K12 = 2.0 * h.eval_matrix(grid.nodes, grid.nodes, t1 + t2)
        comp = K1 @ (grid.weights[:, None] * K2)
        errors.append(np.max(np.abs(comp - K12)) / np.max(np.abs(K12)))
    return _tolerance_report("semigroup-law", errors, tol, t1=t1, t2=t2)


def _scipy_jacobi_rows(n: int, a: float, b: float, x: np.ndarray):
    """P_k^{(a,b)}(x) for degrees k < n (n >= 2), rows k, by scipy's own
    algorithm for integer degrees: the recurrence for the differences
    d_k = p_{k+1} - p_k in x - 1, each p_k scaled by binom(k + a, k). One
    pass keeps every degree, where one eval_jacobi call per degree costs
    O(degree) each; its steps group their factors as scipy's do, so the
    rows equal eval_jacobi's. Also the relative error of the last row
    against one eval_jacobi call, which a wrong step moves."""
    xm1 = x - 1.0
    rows = np.empty((n, x.size))
    rows[0] = 1.0
    rows[1] = 0.5 * (2.0 * (a + 1.0) + (a + b + 2.0) * xm1)
    k = np.arange(1.0, n - 1.0)
    t = 2.0 * k + a + b
    step_p = (t * (t + 1.0) * (t + 2.0))[:, None] * xm1
    step_d = (2.0 * k * (k + b) * (t + 2.0)).tolist()
    denom = (2.0 * (k + a + 1.0) * (k + a + b + 1.0) * t).tolist()
    d = (a + b + 2.0) * xm1 / (2.0 * (a + 1.0))
    p = d + 1.0
    for i in range(n - 2):
        d = (step_p[i] * p + step_d[i] * d) / denom[i]
        p = d + p
        rows[i + 2] = p
    deg = np.arange(2.0, n)
    rows[2:] *= binom(deg + a, deg)[:, None]
    top = eval_jacobi(n - 1, a, b, x)
    return rows, np.abs(rows[-1] - top) / np.maximum(np.abs(top), 1e-30)


def check_shift_identity(params: JacobiParams) -> EstimateReport:
    """Odd component against (1/4) sin(theta) sin(phi) times the shifted even
    kernel. The shifted kernel is summed here from Jacobi polynomials at
    (alpha+1, beta+1) by scipy's recurrence kept at every degree and
    anchored to scipy.special.eval_jacobi at the top one, their L2(dmu+)
    norms as log-Gamma differences, which share nothing with the engine's
    step ratios (their rounding reads 2.6e-9 at (2.5, 3.5)), and the speeds
    k + (alpha+beta+3)/2, to the series length of the even kernel at
    params.shifted(1), so the check does not share the recurrence it certifies."""
    theta = np.array([0.4, 0.9, 1.7, 2.6, 3.0])
    phi = np.array([0.3, 1.2, 2.1, 0.8, 2.9])
    ts = np.array([0.05, 0.3, 1.5])
    odd = poisson_kernel(params, "odd").eval_pairs(theta, phi, ts)
    shifted = params.shifted(1)
    lengths = [DEFAULT_TRUNCATION.series_length(shifted, t, 0) for t in ts]
    a, b = shifted.alpha, shifted.beta
    k = np.arange(max(lengths))
    log_norm2 = (np.log(2.0 * k + a + b + 1.0) + gammaln(k + 1.0)
                 + gammaln(k + a + b + 1.0) - gammaln(k + a + 1.0)
                 - gammaln(k + b + 1.0))
    rows, anchor = _scipy_jacobi_rows(k.size, a, b, np.cos(np.concatenate([theta, phi])))
    terms = np.exp(log_norm2)[:, None] * rows[:, :theta.size] * rows[:, theta.size:]
    speed = k + (a + b + 1.0) / 2.0
    even = np.stack([0.5 * np.exp(-t * speed[:n]) @ terms[:n]
                     for t, n in zip(ts, lengths)], axis=-1)
    want = 0.25 * (np.sin(theta) * np.sin(phi))[:, None] * even
    errors = np.abs(odd - want) / np.maximum(np.abs(want), 1e-30)
    return _tolerance_report("odd-kernel-shift-identity",
                             np.append(errors, anchor), 1e-8)


def check_chain_routes(params: JacobiParams) -> EstimateReport:
    """Ladder-route chain kernels of orders 1 to 4 against the direct
    time-derivative assembly."""
    nmax_order, tol = 4, 1e-6
    theta = np.array([0.5, 1.1, 2.3])
    phi = np.array([0.9, 2.0, 2.8])
    ts = np.array([0.2, 0.9])
    chains = [kernel_derivative(poisson_kernel(params, component), N, 0, route=route)
              for component in ("even", "odd") for N in range(1, nmax_order + 1)
              for route in ("ladder", "direct")]
    samples = eval_kernels([(h, ts) for h in chains], theta, phi)
    errors = [np.max(np.abs(a - b)) / np.maximum(np.max(np.abs(a)), 1e-30)
              for a, b in zip(samples[0::2], samples[1::2])]
    return _tolerance_report("chain-route-agreement", errors, tol, orders=nmax_order)


def check_identities(params: JacobiParams, profile: str = "quick") -> list[EstimateReport]:
    nmax = 20 if _full(profile) else 12
    out = check_orthonormality(params, nmax=nmax)
    out.append(check_eigen_residuals(params))
    out.append(check_conjugation(params))
    out.append(check_semigroup_law(params))
    out.append(check_shift_identity(params))
    out.append(check_chain_routes(params))
    out.extend(check_spectral_identities(params))
    return out


# --- operator identities --------------------------------------------------------

def check_spectral_identities(params: JacobiParams) -> list[EstimateReport]:
    grid = gauss_jacobi_grid(params, 48, "mu_full")
    V = basis_matrix(params, SYM_POLY, np.arange(11), grid)

    errors = []
    for n in range(1, 9):
        f = grid_function(grid, V[n])
        got = apply_operator(OperatorSpec("riesz", N=2), f, 10).values
        lam = eigenvalue(params, half_index(n))
        want = (params.lam0 - lam) / lam * f.values
        errors.append(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    out = [_tolerance_report("riesz-order-two-multiplier", errors, 1e-8)]

    errors = []
    for M in (1, 2):
        for n in (3, 8):
            f = grid_function(grid, V[n])
            got = apply_operator(OperatorSpec("square", M=M), f, n + 1).values
            want = math.sqrt(math.gamma(2.0 * M) / 4.0 ** M) * np.abs(f.values)
            errors.append(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    out.append(_tolerance_report("square-function-time-norm", errors, 1e-4,
                                 orders=[1, 2]))

    # a sum over the rows in order, as a matrix product might round differently
    c = np.random.default_rng(41).standard_normal(11)
    vals = np.zeros(grid.nodes.shape)
    for cn, row in zip(c, V):
        vals += cn * row
    f = GridFunction(grid, vals)
    atom = apply_operator(OperatorSpec(
        "multiplier", multiplier=DiscreteMeasure((0.8,), (1.0,))), f, 10).values
    semi = apply_operator(OperatorSpec("semigroup", t=0.8), f, 10).values
    out.append(_tolerance_report("unit-atom-matches-semigroup-bitwise",
                                 np.abs(atom - semi), 0.0))

    cshift = 0.7
    lap = apply_operator(OperatorSpec(
        "multiplier", multiplier=("laplace", lambda t: np.exp(-cshift * t)),
        tgrid=TGrid(1e-6, 60.0)), f, 10).values
    closed = apply_operator(OperatorSpec(
        "multiplier", multiplier=lambda z: z / (z + cshift)), f, 10).values
    out.append(_tolerance_report("laplace-profile-multiplier",
                                 np.abs(lap - closed) / np.max(np.abs(closed)), 1e-4,
                                 shift=cshift))

    one = apply_operator(OperatorSpec("semigroup", t=0.9), f, 10).values
    two = apply_operator(OperatorSpec("semigroup", t=0.4),
                         GridFunction(grid, apply_operator(
                             OperatorSpec("semigroup", t=0.5), f, 10).values), 10).values
    out.append(_tolerance_report("semigroup-composition-spectral",
                                 np.abs(one - two) / np.max(np.abs(one)), 1e-6))
    return out


# --- kernel sweep claims: domination, standard estimates, size lemmas -------------

def check_domination(params: JacobiParams, spec: SweepSpec) -> list[EstimateReport]:
    """Size of the odd component against the even one over distance bands and
    the dyadic times 0.01 * 2^k (k = 0-10) within [t_min, t_max], plus
    positivity of the even component; `times` records how many.

    The gate is a finite ratio with stable refinement drift; the even kernel
    must stay nonnegative. The measured constant hovers near 1 but no unit
    bound is asserted: the ratio genuinely creeps a fraction of a percent
    above 1 for some parameters (0.1% at (1.5,-0.7) near the diagonal, 0.7%
    at (-0.7,-0.6)), so whether it stays within 1 is only recorded.
    """
    return _sweep(_sweep_claims("domination", params, spec, "quick"), params, spec)


def check_standard_estimates(params: JacobiParams, spec: SweepSpec,
                             profile: str = "quick") -> list[EstimateReport]:
    """Growth and gradient (and, in the full profile, smoothness) of the swept
    kernel set: odd-component Riesz kernels of orders 1 and 2, a single-atom
    multiplier kernel, and the vector square-function kernels for (M, N) in
    {(1,0), (0,1), (1,1)} through both chain routes.

    One pass evaluates every kernel on the sweep pairs (the gradient of
    order N reads chain N+1, the smoothness ratios reuse it at the unmoved
    points); each moved point set takes one more. The single-atom kernel is
    sampled at t = 1 whatever [t_min, t_max]: that is the multiplier's atom,
    a point of the measure, not a sample of the time range.
    """
    return _sweep(_sweep_claims("standard-estimates", params, spec, profile), params, spec)


# (group, family, L, N, M, W, gamma1, gamma2, p); family "growth" bounds by
# the inverse ball measure, "gain" adds a 1/distance factor.
LEMMA_INSTANCES = (
    ("riesz-even", "growth", 0, 0, 0, 2, 1, 1, 1),
    ("riesz-even", "growth", 0, 0, 2, 2, 1, 1, 1),
    ("riesz-even", "gain", 0, 1, 0, 2, 1, 1, 1),
    ("riesz-even", "gain", 0, 1, 2, 2, 1, 1, 1),
    ("riesz-even", "gain", 0, 0, 0, 2, 0, 1, 1),
    ("riesz-even", "gain", 0, 0, 2, 2, 0, 1, 1),
    ("riesz-odd", "growth", 0, 1, 0, 1, 1, 1, 1),
    ("riesz-odd", "growth", 0, 0, 0, 1, 0, 1, 1),
    ("riesz-odd", "gain", 0, 0, 2, 1, 1, 1, 1),
    ("riesz-odd", "gain", 0, 0, 0, 1, 1, 1, 1),
    ("riesz-odd", "gain", 1, 1, 0, 1, 1, 1, 1),
    ("riesz-odd", "gain", 1, 0, 0, 1, 0, 1, 1),
    ("riesz-odd", "gain", 0, 1, 0, 1, 1, 0, 1),
    ("riesz-odd", "gain", 0, 0, 0, 1, 0, 0, 1),
    ("square10", "growth", 0, 0, 1, 2, 1, 1, 2),
    ("square10", "gain", 0, 1, 1, 2, 1, 1, 2),
    ("square10", "gain", 0, 0, 1, 2, 0, 1, 2),
    ("square01", "growth", 0, 1, 0, 2, 1, 1, 2),
    ("square01", "growth", 0, 0, 0, 2, 0, 1, 2),
    ("square01", "gain", 0, 0, 2, 2, 1, 1, 2),
    ("square01", "gain", 0, 0, 0, 2, 1, 1, 2),
    ("square01", "gain", 1, 1, 0, 2, 1, 1, 2),
    ("square01", "gain", 1, 0, 0, 2, 0, 1, 2),
    ("square01", "gain", 0, 1, 0, 2, 1, 0, 2),
    ("square01", "gain", 0, 0, 0, 2, 0, 0, 2),
    ("square11", "growth", 0, 1, 1, 4, 1, 1, 2),
    ("square11", "growth", 0, 0, 1, 4, 0, 1, 2),
    ("square11", "gain", 0, 0, 3, 4, 1, 1, 2),
    ("square11", "gain", 0, 0, 1, 4, 1, 1, 2),
    ("square11", "gain", 1, 1, 1, 4, 1, 1, 2),
    ("square11", "gain", 1, 0, 1, 4, 0, 1, 2),
    ("square11", "gain", 0, 1, 1, 4, 1, 0, 2),
    ("square11", "gain", 0, 0, 1, 4, 0, 0, 2),
    ("mult-laplace", "growth", 0, 0, 1, 1, 1, 1, 1),
    ("mult-laplace", "gain", 0, 1, 1, 1, 1, 1, 1),
    ("mult-laplace", "gain", 0, 0, 1, 1, 0, 1, 1),
    ("mult-stieltjes", "growth", 0, 0, 0, 1, 1, 1, math.inf),
    ("mult-stieltjes", "gain", 0, 1, 0, 1, 1, 1, math.inf),
    ("mult-stieltjes", "gain", 0, 0, 0, 1, 0, 1, math.inf),
)


def lemma_claim_id(inst: tuple) -> str:
    group, family, L, N, M, W, g1, g2, p = inst
    ptag = "inf" if p == math.inf else f"{p:g}"
    return (f"lemma-{family}/{group}/L{L}-N{N}-M{M}-W{W:g}"
            f"-g{g1}{g2}-p{ptag}")


def check_lemma_instances(params: JacobiParams, spec: SweepSpec,
                          profile: str = "quick") -> list[EstimateReport]:
    """Weighted norms of shifted-kernel partial derivatives against the
    inverse ball measure, optionally with a distance gain: every instance in
    the full profile, the first of each group in the quick one. One pass
    evaluates the distinct partial derivatives on the sweep."""
    return _sweep(_sweep_claims("lemma-ratios", params, spec, profile), params, spec)


@dataclass(frozen=True)
class _Claim:
    """A sweep claim: its ratios on spec.pairs() are sin(theta)^g1 sin(phi)^g2
    times `norm` of the kernel's samples at `times` (less those at the pairs
    moved by `move`, fractions of the distance on theta and phi), times the
    ball measures, then times the distance (gain "d") or over `gain`, a
    fraction or 1. Domination (`norm` None) is the odd kernel over the even."""

    suite: str
    claim: str
    kernel: KernelHandle
    times: tuple
    norm: object
    g: tuple = (0, 0)
    gain: str | float = 1.0
    move: tuple = (0.0, 0.0)
    details: dict = field(default_factory=dict)


def _time_functional(tg: TGrid, p, W: float, samples) -> np.ndarray:
    """A sweep claim's functional of samples in t: |int K t^{W-1} dt| / Gamma(W)
    for p "riesz", |K| at the one time sampled for p "atom", else t_norm."""
    if p == "riesz":
        return np.abs(tg.integrate(samples, W)) * (1.0 / math.gamma(W))
    return np.abs(samples[:, 0]) if p == "atom" else t_norm(tg, samples, p, W=W)


def _sweep_claims(suite: str, params: JacobiParams, spec: SweepSpec,
                  profile: str) -> list[_Claim]:
    """The sweep claims of a suite ("all": of every sweep suite), in claim
    order; the full profile adds the smoothness moves and the lemma instances
    past the first of each group. Builds the time grid and the domination
    times, so a time range without them raises before any kernel is sampled."""
    full, rows, odd = _full(profile), [], poisson_kernel(params, "odd")
    standard, lemma = (suite in (s, "all") for s in ("standard-estimates", "lemma-ratios"))
    if standard or lemma:
        tg = spec.tgrid()
        nodes = tuple(tg.nodes)
    if standard:
        moves = (("smooth-first-quarter", 0.25, (0.25, 0.0)),
                 ("smooth-first-eighth", 0.125, (0.125, 0.0)),
                 ("smooth-second-quarter", 0.25, (0.0, -0.25))) if full else ()
        # (name, route, kernel, times, functional, moves); a gradient reads chain N+1
        families = [(f"riesz-kernel-odd-N{N}", "ladder", kernel_derivative(odd, N, 0), nodes,
                     partial(_time_functional, tg, "riesz", float(N)), ()) for N in (1, 2)]
        families.append(("multiplier-kernel-single-atom", "ladder", odd, (1.0,),
                         partial(_time_functional, tg, "atom", None), ()))
        families += [(f"vector-kernel-M{M}-N{N}-{route}", route, kernel_derivative(odd, N, M, route),
                      nodes, partial(_time_functional, tg, 2, 2.0 * M + 2.0 * N), moves)
                     for M, N in ((1, 0), (0, 1), (1, 1)) for route in ("ladder", "direct")]
        add = partial(_Claim, "standard-estimates")
        for name, route, kernel, times, norm, moved in families:
            rows.append(add(f"{name}/growth", kernel, times, norm))
            rows += [add(f"{name}/{claim}", kernel, times, norm, gain=frac, move=move)
                     for claim, frac, move in moved]
            gradient = kernel_derivative(odd, kernel.N + 1, kernel.M, route)
            rows.append(add(f"{name}/gradient", gradient, times, norm, gain="d"))
    if suite in ("domination", "all"):  # a range that holds no time is bad configuration
        ts = tuple(t for t in 0.01 * 2.0 ** np.arange(11) if spec.t_min <= t <= spec.t_max)
        if not ts:
            raise ValueError(f"no domination time 0.01 * 2^k (k = 0-10) lies in "
                             f"[t_min, t_max] = [{spec.t_min:g}, {spec.t_max:g}]")
        rows.append(_Claim("domination", "odd-dominated-by-even", odd, ts, None))
    for i, inst in enumerate(LEMMA_INSTANCES if lemma else ()):
        group, family, L, N, M, W, g1, g2, p = inst
        if full or i == 0 or LEMMA_INSTANCES[i - 1][0] != group:  # quick: a group's first
            rows.append(_Claim("lemma-ratios", lemma_claim_id(inst),
                               partial_derivative_kernel(params, 1, L, N, M), nodes,
                               partial(_time_functional, tg, p, float(W)), (g1, g2),
                               "d" if family == "gain" else 1.0,
                               details={"group": group, "p_norm": str(p),
                                        "time_weight": W}))
    return rows


def _sweep(rows: list[_Claim], params: JacobiParams, spec: SweepSpec,
           timed=lambda name, fn: fn()) -> list[EstimateReport]:
    """The reports of sweep claims, in the order of their rows. The pairs and
    each move of them take one eval_kernels call on the distinct (kernel,
    times) jobs of the rows reading them, timed as "sweep-kernels"; the ball
    measures are computed once, and each row's reduction is timed by suite."""
    d, theta, phi = spec.pairs()
    even = poisson_kernel(params, "even")  # the bound of the domination claim
    sets = {}  # move -> the jobs on the pairs moved by it
    for row in rows:
        jobs = [(row.kernel, row.times)]
        if row.suite == "domination":
            jobs.append((even, row.times))
        for move in ((0.0, 0.0), row.move):
            sets.setdefault(move, {}).update(dict.fromkeys(jobs))
    samples = timed("sweep-kernels", lambda: {
        move: dict(zip(jobs, eval_kernels(list(jobs), theta + move[0] * d,
                                          phi + move[1] * d, spec.truncation())))
        for move, jobs in sets.items()})
    mb, sin_theta, sin_phi = ball_measure(params, theta, d), np.sin(theta), np.sin(phi)

    def reduce(row):
        s = samples[0.0, 0.0][row.kernel, row.times]
        if row.suite == "domination":
            e = samples[0.0, 0.0][even, row.times]
            neg = np.min(e, initial=0.0)
            # 0.0 - neg, not -neg, which reads -0.0 when no sample is negative
            pos = _tolerance_report("even-kernel-positive", 0.0 - neg, 1e-15,
                                    times=len(row.times))
            rep = ratio_sweep_report(row.claim, np.max(np.abs(s) / e, axis=-1), spec)
            rep.details["min_even_value"] = float(neg)
            rep.details["within_unit_constant"] = bool(rep.constant <= 1.0 + 1e-10)
            rep.passed = rep.passed and pos.passed
            return [rep, pos]
        if any(row.move):
            s = s - samples[row.move][row.kernel, row.times]
        r = sin_theta ** row.g[0] * sin_phi ** row.g[1] * row.norm(s) * mb
        r = r * d if row.gain == "d" else r / row.gain
        return [ratio_sweep_report(row.claim, r, spec, details=dict(row.details))]

    return [rep for row in rows for rep in timed(row.suite, lambda: reduce(row))]


# --- empirical operator norms ----------------------------------------------------

def _restricted_matrix(params: JacobiParams, grid, N: int, nmax: int,
                       component: str) -> np.ndarray:
    """Dense discretization of the interlaced Riesz transform on a mu+ grid."""
    E, F, _, V = spectral_table(OperatorSpec("riesz_interlaced", N=N), grid,
                                restricted_family(params, nmax, component))
    live = F != 0.0
    return V[live].T @ (F[live, None] * (E[live] * grid.weights[None, :]))


def empirical_lp_sweep(params: JacobiParams, p: float, weights: tuple,
                       seed: int = 0) -> list[EstimateReport]:
    """Operator norm estimates for the first-order interlaced Riesz transform,
    on the even elements up to index 16, on weighted L^p over ((0,pi), mu+),
    at two grid resolutions (orders 32 and 64). Off p = 2 a norm is the largest
    ratio over 200 random inputs.

    Inside the power-weight admissibility window the estimates stabilize
    under refinement; outside they keep growing as the nodes approach the
    weight singularity. Reports carry both estimates and the membership
    verdict; growth is diagnostic, not asserted, since a discretized norm is
    always finite.
    """
    out = []
    # neither the grid nor the matrix depends on the weight
    grids = [gauss_jacobi_grid(params, order, "mu_plus") for order in (32, 64)]
    matrices = [_restricted_matrix(params, grid, 1, 16, "even") for grid in grids]
    for r, s in weights:
        w = PowerWeight(r, s)
        admissible = ap_membership(params, w, p)
        norms = []
        for grid, T in zip(grids, matrices):
            wv = w(grid.nodes) * grid.weights
            if p == 2.0:
                S = np.sqrt(wv)
                A = S[:, None] * T / S[None, :]
                est = float(np.linalg.svd(A, compute_uv=False)[0])
            else:
                # rows of F: the inputs, equal to 200 successive draws of a row each
                F = np.random.default_rng(seed).standard_normal((200, grid.nodes.size))
                ntf, nf = ((np.abs(X) ** p @ wv) ** (1.0 / p) for X in (F @ T.T, F))
                est = float(np.max(ntf / nf))
            norms.append(est)
        growth = norms[-1] / norms[0]
        out.append(EstimateReport(
            claim=f"lp-norm/riesz-N1-even/p{p:g}/r{r:g}-s{s:g}",
            passed=bool(np.isfinite(norms).all()),
            constant=norms[-1], drift=growth,
            details={"admissible": admissible, "estimates": norms,
                     "orders": [32, 64], "p": p,
                     "weight": {"r": r, "s": s}}))
    return out


def check_weight_classes(params: JacobiParams, seed: int = 0) -> list[EstimateReport]:
    """Membership toolkit consistency: the two power-weight classes agree
    through the parameter shift (a+1/2)(p-2), (b+1/2)(p-2), and the
    unweighted window matches its closed form."""
    # rows (r, s, p), equal to three scalar draws each, in the same order
    r, s, p = np.random.default_rng(seed).uniform((-6.0, -6.0, 1.0), (6.0, 6.0, 6.0),
                                                  size=(10000, 3)).T
    w = PowerWeight(r, s)
    shifted = w.shifted((params.alpha + 0.5) * (p - 2.0), (params.beta + 0.5) * (p - 2.0))
    mismatches = np.count_nonzero(bp_membership(params, w, p)
                                  != ap_membership(params, shifted, p))
    rep1 = _tolerance_report("weight-class-shift-equivalence", mismatches, 0.0,
                             samples=r.size)

    lo, hi = unweighted_bp_window(params)
    wrong = [float(unweighted_bp_admissible(params, float(p)) != (lo < 1.0 / p < hi))
             for p in np.linspace(1.01, 40.0, 200)]
    rep2 = _tolerance_report("unweighted-window-closed-form", wrong, 0.0,
                             window=[lo, hi])
    return [rep1, rep2]


# --- suite runner ---------------------------------------------------------------

def run_suite(suite: str, params: JacobiParams, profile: str = "quick",
              spec: SweepSpec | None = None, ngrid: int = 1024,
              seed: int = 0, timings: bool = False, p: float = 2.0,
              weights: tuple = ((0.0, 0.0), (1.0, 1.0))) -> dict:
    """The report of one suite; `p` and `weights` are the lp-sweep's
    exponent and power weights (r, s)."""
    if suite not in SUITES:
        raise ValueError(f"suite must be one of {SUITES}")
    full = _full(profile)
    if spec is None:
        spec = FULL_SWEEP if full else QUICK_SWEEP
    clock = {}

    def timed(name, fn):
        import time
        t0 = time.perf_counter()
        res = fn()
        clock[name] = clock.get(name, 0.0) + time.perf_counter() - t0
        return res

    # the claim table takes the time grid and the domination times first:
    # a time range without them fails before any work
    claims = _sweep_claims(suite, params, spec, profile)
    reports = []
    if suite in ("identities", "all"):
        reports += timed("identities", lambda: check_identities(params, profile))
    if suite in ("sharp-constants", "all"):
        reports += timed("sharp-constants", lambda: check_sharp_constants(ngrid))
        reports += timed("ball-comparability",
                         lambda: check_ball_comparability(params, spec, profile))
    if claims:  # the sweep suites share one kernel call on the pairs
        reports += _sweep(claims, params, spec, timed)
    if suite in ("lp-sweep", "all"):
        reports += timed("lp-sweep", lambda: empirical_lp_sweep(
            params, p, weights=weights, seed=seed))
        reports += timed("weight-classes",
                         lambda: check_weight_classes(params, seed=seed))
    return suite_report(suite, params, profile, reports,
                        timings=clock if timings else None)
