"""Spectral operators in all four settings: expand, transform, resum.

The symmetrized setting works in the orthonormal families on (-pi,pi); the
restricted setting follows the half-line displays literally (coefficients are
plain mu+ inner products against the even- or odd-indexed symmetrized
elements, without renormalizing their mu+ norm of 1/2). The non-symmetrized
setting acts on the Lebesgue-orthonormal family over (0,pi), where the chain
operators shift the type parameters.

One core serves every setting, on a family (params, kind, index array):
coefficient n goes to a factor times the ladder image of source index n,
scaled by a function of the speed sqrt(lambda_n). basis_matrix reads the
elements from the grid's table of the family, so only a chain that shifts
the parameters builds a table; speeds and ladder images are array
arithmetic. Maximal and square operators share one time trajectory on a
TGrid and read it with its t-norm: the sup (p = inf) or the square norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .basis import (
    JACOBI_FN,
    SYM_POLY,
    TRIG_POLY,
    JacobiParams,
    basis_matrix,
    eigenvalue,
    half_index,
    ladder_images,
    psi,
)
from .kernels import DiscreteMeasure
from .quadrature import TAG_KINDS, TGrid, ThetaGrid, t_norm

OPERATOR_KINDS = ("semigroup", "riesz", "riesz_interlaced", "multiplier",
                  "maximal", "square", "square_interlaced")
_SYM_KINDS = ("semigroup", "riesz", "multiplier", "maximal", "square")

# the operator kinds each setting accepts
SETTINGS = {"sym_poly": _SYM_KINDS, "sym_fn": _SYM_KINDS, "nonsym": OPERATOR_KINDS,
            "restricted": ("semigroup", "riesz_interlaced", "multiplier",
                           "maximal", "square_interlaced")}
# the fields besides kind an OperatorSpec of each kind reads; it takes no other
_READS = {"semigroup": ("t",), "riesz": ("N",), "riesz_interlaced": ("N",),
          "multiplier": ("multiplier", "tgrid"), "maximal": ("tgrid",),
          "square": ("N", "M", "tgrid"), "square_interlaced": ("N", "M", "tgrid")}
# the time grid of a spec that names none; its arrays are read-only, so shared
DEFAULT_TGRID = TGrid()


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Samples of a function on a quadrature grid."""

    grid: ThetaGrid
    values: np.ndarray

    def __post_init__(self):
        if np.shape(self.values) != self.grid.nodes.shape:
            raise ValueError("values do not match the grid nodes")


def grid_function(grid: ThetaGrid, f) -> GridFunction:
    vals = f(grid.nodes) if callable(f) else np.asarray(f, dtype=float)
    return GridFunction(grid, vals)


@dataclass(frozen=True)
class OperatorSpec:
    """What to apply to an expansion.

    kind: one of OPERATOR_KINDS, which reads the fields _READS names (t the
    semigroup time, N the chain order, M the time-derivative order, tgrid the
    time trajectory, which a multiplier reads only in the form ("laplace",
    profile)); a field its kind does not read keeps its default.
    """

    kind: str
    t: float | None = None
    N: int = 0
    M: int = 0
    multiplier: object | None = None
    tgrid: TGrid | None = None

    def __post_init__(self):
        if self.kind not in OPERATOR_KINDS:
            raise ValueError(f"kind must be one of {OPERATOR_KINDS}")
        for f in fields(self)[1:]:
            if f.name not in _READS[self.kind] and getattr(self, f.name) != f.default:
                raise ValueError(f"{self.kind} reads no {f.name}")
        if self.kind == "semigroup" and (self.t is None or not self.t >= 0):
            raise ValueError("semigroup needs t >= 0")
        if self.kind in ("riesz", "riesz_interlaced") and self.N < 1:
            raise ValueError("Riesz kinds need N >= 1")
        if self.kind == "multiplier" and self.multiplier is None:
            raise ValueError("multiplier kind needs a multiplier")
        if self.tgrid is not None and self.kind == "multiplier" and not _laplace(self.multiplier):
            raise ValueError("only a ('laplace', profile) multiplier reads tgrid")
        if self.N < 0 or self.M < 0:
            raise ValueError("need N >= 0 and M >= 0")
        if self.kind in ("square", "square_interlaced") and self.N + self.M < 1:
            raise ValueError("square kinds need M + N >= 1")

    def time_grid(self) -> TGrid:
        return self.tgrid if self.tgrid is not None else DEFAULT_TGRID


def _expand(f: GridFunction, family: tuple) -> np.ndarray:
    return (f.values * basis_matrix(*family, f.grid)) @ f.grid.weights


def expand(f: GridFunction, nmax: int) -> np.ndarray:
    """Coefficients against the family matching the grid's measure.

    Orthonormal families give true expansion coefficients; on a mu_plus grid
    the coefficients are the plain inner products used by the restricted
    operator displays (call with the symmetrized elements via
    expand_restricted for those).
    """
    return _expand(f, (f.grid.params, TAG_KINDS[f.grid.tag], np.arange(nmax + 1)))


def restricted_family(params: JacobiParams, nmax: int, component: str) -> tuple:
    """Phi_{2n} (component even) or Phi_{2n+1} (odd) for n = 0..nmax, as
    the family (params, sym_poly, indices)."""
    if component not in ("even", "odd"):
        raise ValueError("component must be 'even' or 'odd'")
    return params, SYM_POLY, 2 * np.arange(nmax + 1) + (component == "odd")


def expand_restricted(f: GridFunction, nmax: int, component: str) -> np.ndarray:
    """<f, Phi_{2n}>_{mu+} (component even) or <f, Phi_{2n+1}>_{mu+} (odd),
    exactly as the restricted displays use them."""
    if f.grid.tag != "mu_plus":
        raise ValueError("restricted expansion needs a mu_plus grid")
    return _expand(f, restricted_family(f.grid.params, nmax, component))


def synthesize(coefs: np.ndarray, family: tuple, theta: np.ndarray) -> np.ndarray:
    """sum_i coefs[i] * element indices[i] of the family (params, kind, indices) at theta."""
    return coefs @ basis_matrix(*family, theta)


def _laplace(multiplier) -> bool:
    """Whether multiplier is the form ("laplace", profile), the one that reads tgrid."""
    return isinstance(multiplier, tuple) and len(multiplier) == 2 and multiplier[0] == "laplace"


def _mult_value(multiplier, z: np.ndarray, tgrid: TGrid) -> np.ndarray:
    """m(z) for the three accepted multiplier forms.

    Atomic measures reuse the exact semigroup factors e^{-t_j z}, so a unit
    atom reproduces the semigroup operator bit for bit.
    """
    if isinstance(multiplier, DiscreteMeasure):
        return sum(wj * np.exp(-tj * z) for tj, wj in zip(multiplier.times,
                                                           multiplier.weights))
    if callable(multiplier):
        return np.asarray(multiplier(z), dtype=float)
    if _laplace(multiplier):
        ts, vals = tgrid.nodes, multiplier[1](tgrid.nodes)
        w = tgrid.log_weights * ts  # tgrid.integrate's weights at W = 1, formed once
        # one dot product per speed: a single matrix product rounds differently
        return np.array([row @ w for row in z[:, None] * np.exp(-ts * z[:, None]) * vals])
    raise ValueError("multiplier must be callable, a DiscreteMeasure, "
                     "or ('laplace', profile)")


def _chain(kind: str, N: int, params: JacobiParams, family: str, n: np.ndarray) -> tuple:
    """(factors, image params, image indices) of the order-N chain of an
    operator kind on the indices n of one family; the identity at N = 0, the
    order of the kinds without a chain."""
    if N == 0:
        return np.ones(n.shape), params, n
    return ladder_images(N, params, family, n, kind.endswith("_interlaced"))


def spectral_table(spec: OperatorSpec, grid: ThetaGrid,
                   source: tuple) -> tuple[np.ndarray, ...]:
    """(E, F, z, V): the action of spec on the source family (params, kind,
    indices) at the nodes.

    E[n] and V[n] are the rows of source element n and of its chain image (V
    is E at N = 0), z[n] = sqrt(lambda_n) its speed, F[n] its factor:
    e^{-t z}, m(z) or lambda^{-N/2} times the chain factor, and for the time
    kinds the chain factor times (-z)^M. A vanishing image has F[n] = 0 (and
    V[n] some row of the image family).
    """
    params, kind, n = source[0], source[1], np.asarray(source[2])
    chain, image_params, m = _chain(spec.kind, spec.N, params, kind, n)
    E = basis_matrix(params, kind, n, grid)
    V = E if spec.N == 0 else basis_matrix(image_params, kind, m, grid)
    lam = eigenvalue(params, n if kind in (TRIG_POLY, JACOBI_FN) else half_index(n))
    z = np.sqrt(lam)
    if spec.kind == "semigroup":
        F = np.exp(-spec.t * z)
    elif spec.kind == "multiplier":
        F = _mult_value(spec.multiplier, z, spec.time_grid())
    elif spec.kind.startswith("riesz"):
        # Python float powers: a vectorized power may round differently
        F = np.array([lk ** (-spec.N / 2.0) * c if c else 0.0
                      for c, lk in zip(chain.tolist(), lam.tolist())])
    else:
        F = chain * (-z) ** spec.M
    return E, F, z, V


def _act(spec: OperatorSpec, f: GridFunction, setting: str,
         source: tuple) -> GridFunction:
    """Expand f against the source family and apply spec spectrally."""
    if spec.kind not in SETTINGS[setting]:
        raise ValueError(f"{spec.kind} is not a {setting}-setting kind")
    E, F, z, V = spectral_table(spec, f.grid, source)
    coefs = (f.values * E) @ f.grid.weights
    if spec.kind not in ("maximal", "square", "square_interlaced"):
        return GridFunction(f.grid, (coefs * F) @ V)
    tgrid = spec.time_grid()
    V = (coefs * F)[:, None] * V
    field = np.exp(-tgrid.nodes[:, None] * z) @ V
    if spec.kind == "maximal":
        # the sup over the grid's times, as the p = inf t-norm reads it, and
        # the t -> 0 limit of the trajectory, the (band-limited) function
        return GridFunction(f.grid, np.maximum(t_norm(tgrid, field.T, math.inf),
                                               np.abs(np.sum(V, axis=0))))
    return GridFunction(f.grid, t_norm(tgrid, field.T, 2, W=2.0 * spec.M + 2.0 * spec.N))


def apply_operator(spec: OperatorSpec, f: GridFunction, nmax: int) -> GridFunction:
    """Apply a symmetrized-setting operator through the expansion of f in the
    family matching its grid (sym_poly on mu_full, sym_fn on theta_full)."""
    if f.grid.tag not in ("mu_full", "theta_full"):
        raise ValueError("symmetrized operators act on full-interval grids")
    kind = TAG_KINDS[f.grid.tag]
    return _act(spec, f, kind, (f.grid.params, kind, np.arange(nmax + 1)))


def apply_restricted(spec: OperatorSpec, f: GridFunction, nmax: int,
                     component: str) -> GridFunction:
    """The half-line operators: coefficients <f, Phi_{2n(+1)}>_{mu+} enter the
    displays verbatim, chains act through their closed ladder form."""
    if f.grid.tag != "mu_plus":
        raise ValueError("restricted operators act on mu_plus grids")
    return _act(spec, f, "restricted", restricted_family(f.grid.params, nmax, component))


def split_parity(f: GridFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Restrict a full-interval grid function to (0,pi) even and odd parts.

    Returns (theta_plus, even_values, odd_values); relies on the grid's
    mirror-symmetric node layout."""
    n2 = f.grid.nodes.size
    half = n2 // 2
    if n2 % 2 != 0 or not np.array_equal(f.grid.nodes[:half],
                                         -f.grid.nodes[half:][::-1]):
        raise ValueError("grid nodes are not mirror symmetric")
    neg, pos = f.values[:half][::-1], f.values[half:]
    return f.grid.nodes[half:], 0.5 * (pos + neg), 0.5 * (pos - neg)


def nonsym_apply(spec: OperatorSpec, f: GridFunction, nmax: int) -> GridFunction:
    """The (0,pi) Lebesgue-setting operators on the weighted family.

    Plain Riesz chains of order N iterate the parameter-shifting first-order
    operator and land on params.shifted(N); interlaced ones alternate it with
    its adjoint and land on params.shifted(N % 2) exactly, so an even one
    reads its sources and images from the grid's table and only a chain that
    shifts the parameters builds a table. Square kinds follow the same
    mapping with the time factors attached.
    """
    if f.grid.tag != "theta_plus":
        raise ValueError("non-symmetrized operators act on theta_plus grids")
    return _act(spec, f, "nonsym", (f.grid.params, JACOBI_FN, np.arange(nmax + 1)))


def transfer_function_setting(spec: OperatorSpec, f: GridFunction, nmax: int,
                              companion: ThetaGrid) -> GridFunction:
    """Function-setting operator through psi-conjugation: divide by psi,
    apply the polynomial-setting operator on the companion measure grid
    (same nodes), multiply by psi."""
    if f.grid.tag != "theta_full" or companion.tag != "mu_full":
        raise ValueError("transference maps theta_full through a mu_full grid")
    if not np.array_equal(f.grid.nodes, companion.nodes):
        raise ValueError("companion grid must share the nodes")
    w = psi(f.grid.params, f.grid.nodes)
    out = apply_operator(spec, GridFunction(companion, f.values / w), nmax)
    return GridFunction(f.grid, w * out.values)
