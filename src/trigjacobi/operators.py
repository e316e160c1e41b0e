"""Spectral operators in all four settings: expand, transform, resum.

The symmetrized setting works in the orthonormal families on (-pi,pi); the
restricted setting follows the half-line displays literally (coefficients are
plain mu+ inner products against the even- or odd-indexed symmetrized
elements, without renormalizing their mu+ norm of 1/2). The non-symmetrized
setting acts on the Lebesgue-orthonormal family over (0,pi), where the chain
operators shift the type parameters.

Maximal and square operators evaluate the full time trajectory of the
transformed expansion on a TGrid and reduce with the corresponding t-norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import (
    JACOBI_FN,
    SYM_FN,
    SYM_POLY,
    TRIG_POLY,
    BasisElement,
    JacobiParams,
    d_power_on_element,
    eigenvalue,
    eval_basis,
    half_index,
    interlaced_fn_chain,
    interlaced_on_element,
    ladder_step,
    psi,
)
from .kernels import DEFAULT_TGRID, DiscreteMeasure
from .quadrature import TGrid, ThetaGrid, inner_product, t_norm

SETTINGS = ("sym_poly", "sym_fn", "restricted", "nonsym")

_GRID_KIND = {"mu_full": SYM_POLY, "theta_full": SYM_FN,
              "mu_plus": TRIG_POLY, "theta_plus": JACOBI_FN}


@dataclass(frozen=True)
class GridFunction:
    """Samples of a function on a quadrature grid."""

    grid: ThetaGrid
    values: np.ndarray

    def __post_init__(self):
        if np.shape(self.values) != self.grid.nodes.shape:
            raise ValueError("values do not match the grid nodes")

    def norm(self) -> float:
        return float(np.sqrt(inner_product(self.grid, self.values, self.values)))


def grid_function(grid: ThetaGrid, f) -> GridFunction:
    vals = f(grid.nodes) if callable(f) else np.asarray(f, dtype=float)
    return GridFunction(grid, vals)


@dataclass(frozen=True)
class OperatorSpec:
    """What to apply to an expansion.

    kind: semigroup (needs t), riesz, riesz_interlaced, multiplier (needs
    multiplier), maximal, square, square_interlaced. N is the chain order of
    the Riesz and square kinds, M the time-derivative order of the square
    kinds. Time-dependent kinds read their trajectory from tgrid.
    """

    kind: str
    t: float | None = None
    N: int = 0
    M: int = 0
    multiplier: object | None = None
    tgrid: TGrid | None = None

    def __post_init__(self):
        kinds = ("semigroup", "riesz", "riesz_interlaced", "multiplier",
                 "maximal", "square", "square_interlaced")
        if self.kind not in kinds:
            raise ValueError(f"kind must be one of {kinds}")
        if self.kind == "semigroup" and (self.t is None or self.t < 0):
            raise ValueError("semigroup needs t >= 0")
        if self.kind in ("riesz", "riesz_interlaced") and self.N < 1:
            raise ValueError("Riesz kinds need N >= 1")
        if self.kind == "multiplier" and self.multiplier is None:
            raise ValueError("multiplier kind needs a multiplier")
        if self.kind in ("square", "square_interlaced") and self.N + self.M < 1:
            raise ValueError("square kinds need M + N >= 1")

    def time_grid(self) -> TGrid:
        return self.tgrid if self.tgrid is not None else DEFAULT_TGRID


def expand(f: GridFunction, nmax: int) -> np.ndarray:
    """Coefficients against the family matching the grid's measure.

    Orthonormal families give true expansion coefficients; on a mu_plus grid
    the coefficients are the plain inner products used by the restricted
    operator displays (call with the symmetrized elements via
    expand_restricted for those).
    """
    kind = _GRID_KIND[f.grid.tag]
    p = f.grid.params
    out = np.empty(nmax + 1)
    for n in range(nmax + 1):
        out[n] = inner_product(f.grid, f.values,
                               eval_basis(BasisElement(p, n, kind), f.grid.nodes))
    return out


def expand_restricted(f: GridFunction, nmax: int, component: str) -> np.ndarray:
    """<f, Phi_{2n}>_{mu+} (component even) or <f, Phi_{2n+1}>_{mu+} (odd),
    exactly as the restricted displays use them."""
    if f.grid.tag != "mu_plus":
        raise ValueError("restricted expansion needs a mu_plus grid")
    if component not in ("even", "odd"):
        raise ValueError("component must be 'even' or 'odd'")
    p = f.grid.params
    offset = 0 if component == "even" else 1
    out = np.empty(nmax + 1)
    for n in range(nmax + 1):
        elem = BasisElement(p, 2 * n + offset, SYM_POLY)
        out[n] = inner_product(f.grid, f.values, eval_basis(elem, f.grid.nodes))
    return out


def synthesize(coefs: np.ndarray, elements: list[BasisElement | None],
               theta: np.ndarray) -> np.ndarray:
    out = np.zeros(theta.shape)
    for c, elem in zip(coefs, elements):
        if elem is None or c == 0.0:
            continue
        out += c * eval_basis(elem, theta)
    return out


def _mult_value(multiplier, z: np.ndarray, tgrid: TGrid) -> np.ndarray:
    """m(z) for the three accepted multiplier forms.

    Atomic measures reuse the exact semigroup factors e^{-t_j z}, so a unit
    atom reproduces the semigroup operator bit for bit.
    """
    if isinstance(multiplier, DiscreteMeasure):
        out = None
        for tj, wj in zip(multiplier.times, multiplier.weights):
            term = wj * np.exp(-tj * z)
            out = term if out is None else out + term
        return out
    if callable(multiplier):
        return np.asarray(multiplier(z), dtype=float)
    if isinstance(multiplier, tuple) and len(multiplier) == 2 and multiplier[0] == "laplace":
        profile = multiplier[1]
        ts = tgrid.nodes
        vals = profile(ts)
        return np.array([tgrid.integrate(zi * np.exp(-ts * zi) * vals, 1.0)
                         for zi in np.atleast_1d(z)])
    raise ValueError("multiplier must be callable, a DiscreteMeasure, "
                     "or ('laplace', profile)")


# --- element mapping per operator -------------------------------------------

def _sym_images(params: JacobiParams, spec: OperatorSpec, nmax: int,
                kind: str) -> tuple[np.ndarray, list[BasisElement | None]]:
    """Per-index scalar factors and image elements in the symmetrized setting."""
    z = np.sqrt(eigenvalue(params, np.array([half_index(n)
                                             for n in range(nmax + 1)], dtype=float)))
    if spec.kind == "semigroup":
        factors = np.exp(-spec.t * z)
        images = [BasisElement(params, n, kind) for n in range(nmax + 1)]
        return factors, images
    if spec.kind == "multiplier":
        factors = _mult_value(spec.multiplier, z, spec.time_grid())
        images = [BasisElement(params, n, kind) for n in range(nmax + 1)]
        return factors, images
    factors = np.zeros(nmax + 1)
    images: list[BasisElement | None] = [None] * (nmax + 1)
    for n in range(1, nmax + 1):
        coef, img = d_power_on_element(spec.N, BasisElement(params, n, kind))
        if img is None or coef == 0.0:
            continue
        factors[n] = float(z[n]) ** (-spec.N) * coef
        images[n] = img
    return factors, images


def apply_operator(spec: OperatorSpec, f: GridFunction, nmax: int) -> GridFunction:
    """Apply a symmetrized-setting operator through the expansion of f in the
    family matching its grid (sym_poly on mu_full, sym_fn on theta_full)."""
    if f.grid.tag not in ("mu_full", "theta_full"):
        raise ValueError("symmetrized operators act on full-interval grids")
    kind = _GRID_KIND[f.grid.tag]
    p = f.grid.params
    coefs = expand(f, nmax)
    theta = f.grid.nodes
    if spec.kind in ("semigroup", "riesz", "multiplier"):
        factors, images = _sym_images(p, spec, nmax, kind)
        return GridFunction(f.grid, synthesize(coefs * factors, images, theta))
    if spec.kind == "maximal":
        field = _semigroup_field(p, coefs, kind, theta, spec.time_grid())
        sup_grid = np.max(np.abs(field), axis=0)
        # the t -> 0 limit of the trajectory is the (band-limited) function
        ident = synthesize(coefs, [BasisElement(p, n, kind)
                                   for n in range(nmax + 1)], theta)
        return GridFunction(f.grid, np.maximum(sup_grid, np.abs(ident)))
    if spec.kind == "square":
        field = _square_field(p, coefs, kind, theta, spec)
        W = 2.0 * spec.M + 2.0 * spec.N
        vals = t_norm(spec.time_grid(), field.T, 2, W=W)
        return GridFunction(f.grid, vals)
    raise ValueError(f"{spec.kind} is not a symmetrized-setting kind")


def _semigroup_field(params, coefs, kind, theta, tgrid) -> np.ndarray:
    """Trajectory e^{-t sqrt(lam)} resummation: shape (nt, ntheta)."""
    nmax = len(coefs) - 1
    lam = eigenvalue(params, np.array([half_index(n) for n in range(nmax + 1)]))
    V = np.stack([eval_basis(BasisElement(params, n, kind), theta)
                  for n in range(nmax + 1)])
    Wt = coefs[None, :] * np.exp(-np.outer(tgrid.nodes, np.sqrt(lam)))
    return Wt @ V


def _square_field(params, coefs, kind, theta, spec: OperatorSpec) -> np.ndarray:
    """Trajectory of d_t^M D^N applied to the semigroup of f: (nt, ntheta)."""
    nmax = len(coefs) - 1
    rows = []
    lam_all = []
    for n in range(nmax + 1):
        elem = BasisElement(params, n, kind)
        if spec.kind == "square" and spec.N > 0:
            coef, img = d_power_on_element(spec.N, elem)
        elif spec.kind == "square_interlaced" and spec.N > 0:
            variant = "even" if n % 2 == 0 else "odd"
            coef, img = interlaced_on_element(variant, spec.N, elem)
        else:
            coef, img = 1.0, elem
        lam = eigenvalue(params, half_index(n))
        lam_all.append(lam)
        if img is None or coef == 0.0:
            rows.append(np.zeros(theta.shape))
        else:
            rows.append(coefs[n] * coef * (-math.sqrt(lam)) ** spec.M
                        * eval_basis(img, theta))
    V = np.stack(rows)
    E = np.exp(-np.outer(spec.time_grid().nodes, np.sqrt(np.array(lam_all))))
    return E @ V


# --- restricted setting -------------------------------------------------------

def apply_restricted(spec: OperatorSpec, f: GridFunction, nmax: int,
                     component: str) -> GridFunction:
    """The half-line operators: coefficients <f, Phi_{2n(+1)}>_{mu+} enter the
    displays verbatim, chains act through their closed ladder form."""
    if f.grid.tag != "mu_plus":
        raise ValueError("restricted operators act on mu_plus grids")
    p = f.grid.params
    offset = 0 if component == "even" else 1
    d = expand_restricted(f, nmax, component)
    theta = f.grid.nodes
    variant = "even" if component == "even" else "odd"

    def lam_of(n):
        return eigenvalue(p, n if component == "even" else n + 1)

    if spec.kind in ("semigroup", "multiplier"):
        z = np.sqrt(np.array([lam_of(n) for n in range(nmax + 1)]))
        if spec.kind == "semigroup":
            factors = np.exp(-spec.t * z)
        else:
            factors = _mult_value(spec.multiplier, z, spec.time_grid())
        elems = [BasisElement(p, 2 * n + offset, SYM_POLY) for n in range(nmax + 1)]
        return GridFunction(f.grid, synthesize(d * factors, elems, theta))
    if spec.kind == "riesz_interlaced":
        vals = np.zeros(theta.shape)
        for n in range(nmax + 1):
            if component == "even" and n == 0:
                continue
            coef, img = interlaced_on_element(
                variant, spec.N, BasisElement(p, 2 * n + offset, SYM_POLY))
            if coef == 0.0:
                continue
            vals += d[n] * lam_of(n) ** (-spec.N / 2.0) * coef * eval_basis(img, theta)
        return GridFunction(f.grid, vals)
    if spec.kind in ("maximal", "square_interlaced"):
        rows, lam_all = [], []
        for n in range(nmax + 1):
            elem = BasisElement(p, 2 * n + offset, SYM_POLY)
            lam_all.append(lam_of(n))
            if spec.kind == "maximal" or spec.N == 0:
                coef, img = 1.0, elem
            else:
                coef, img = interlaced_on_element(variant, spec.N, elem)
            if img is None or coef == 0.0:
                rows.append(np.zeros(theta.shape))
                continue
            scale = (-math.sqrt(lam_all[-1])) ** spec.M if spec.kind != "maximal" else 1.0
            rows.append(d[n] * coef * scale * eval_basis(img, theta))
        V = np.stack(rows)
        E = np.exp(-np.outer(spec.time_grid().nodes, np.sqrt(np.array(lam_all))))
        field = E @ V
        if spec.kind == "maximal":
            ident = np.abs(np.sum(V, axis=0))
            return GridFunction(f.grid, np.maximum(np.max(np.abs(field), axis=0), ident))
        W = 2.0 * spec.M + 2.0 * spec.N
        return GridFunction(f.grid, t_norm(spec.time_grid(), field.T, 2, W=W))
    raise ValueError(f"{spec.kind} is not a restricted-setting kind")


def split_parity(f: GridFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Restrict a full-interval grid function to (0,pi) even and odd parts.

    Returns (theta_plus, even_values, odd_values); relies on the grid's
    mirror-symmetric node layout."""
    n2 = f.grid.nodes.size
    half = n2 // 2
    if n2 % 2 != 0 or not np.array_equal(f.grid.nodes[:half],
                                         -f.grid.nodes[half:][::-1]):
        raise ValueError("grid nodes are not mirror symmetric")
    neg = f.values[:half][::-1]
    pos = f.values[half:]
    return f.grid.nodes[half:], 0.5 * (pos + neg), 0.5 * (pos - neg)


# --- non-symmetrized setting ---------------------------------------------------

def nonsym_apply(spec: OperatorSpec, f: GridFunction, nmax: int) -> GridFunction:
    """The (0,pi) Lebesgue-setting operators on the weighted family.

    Plain Riesz chains iterate the parameter-shifting first-order operator;
    interlaced ones alternate it with its adjoint and stay in (or return to)
    the original parameters. Square kinds follow the same mapping with the
    time factors attached.
    """
    if f.grid.tag != "theta_plus":
        raise ValueError("non-symmetrized operators act on theta_plus grids")
    p = f.grid.params
    coefs = expand(f, nmax)
    theta = f.grid.nodes
    lam = eigenvalue(p, np.arange(nmax + 1, dtype=float))

    if spec.kind in ("semigroup", "multiplier"):
        z = np.sqrt(lam)
        factors = (np.exp(-spec.t * z) if spec.kind == "semigroup"
                   else _mult_value(spec.multiplier, z, spec.time_grid()))
        elems = [BasisElement(p, n, JACOBI_FN) for n in range(nmax + 1)]
        return GridFunction(f.grid, synthesize(coefs * factors, elems, theta))

    def chain_image(n: int) -> tuple[float, BasisElement | None]:
        elem = BasisElement(p, n, JACOBI_FN)
        if spec.N == 0:
            return 1.0, elem
        if spec.kind in ("riesz", "square"):
            coef, cur = 1.0, elem
            for _ in range(spec.N):
                c, cur = ladder_step("D", cur)
                coef *= c
                if cur is None:
                    return 0.0, None
            return coef, cur
        coef, img = interlaced_fn_chain(spec.N, elem)
        return (coef, img) if coef != 0.0 else (0.0, None)

    if spec.kind in ("riesz", "riesz_interlaced"):
        vals = np.zeros(theta.shape)
        for n in range(1, nmax + 1):
            coef, img = chain_image(n)
            if img is None:
                continue
            vals += coefs[n] * lam[n] ** (-spec.N / 2.0) * coef * eval_basis(img, theta)
        return GridFunction(f.grid, vals)

    if spec.kind in ("maximal", "square", "square_interlaced"):
        rows = []
        for n in range(nmax + 1):
            if spec.kind == "maximal":
                coef, img = 1.0, BasisElement(p, n, JACOBI_FN)
            else:
                coef, img = chain_image(n)
            if img is None:
                rows.append(np.zeros(theta.shape))
                continue
            scale = (-math.sqrt(lam[n])) ** spec.M if spec.kind != "maximal" else 1.0
            rows.append(coefs[n] * coef * scale * eval_basis(img, theta))
        V = np.stack(rows)
        E = np.exp(-np.outer(spec.time_grid().nodes, np.sqrt(lam)))
        field = E @ V
        if spec.kind == "maximal":
            ident = np.abs(np.sum(V, axis=0))
            return GridFunction(f.grid, np.maximum(np.max(np.abs(field), axis=0), ident))
        W = 2.0 * spec.M + 2.0 * spec.N
        return GridFunction(f.grid, t_norm(spec.time_grid(), field.T, 2, W=W))
    raise ValueError(f"{spec.kind} is not a non-symmetrized kind")


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
    inner = GridFunction(companion, f.values / w)
    out = apply_operator(spec, inner, nmax)
    return GridFunction(f.grid, w * out.values)
