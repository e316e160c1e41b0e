"""operators: the spectral calculus in all four settings on seeded
band-limited inputs, with no kernel series.

For each band limit B in BANDS, at (alpha, beta) = PARAMS, one round applies
every operator kind each entry point accepts, with every multiplier form:
  apply_operator on mu_full (sym_poly) and theta_full (sym_fn) inputs,
  transfer_function_setting on the theta_full input through mu_full,
  apply_restricted for the even and the odd component on mu_plus,
  nonsym_apply on theta_plus,
plus the expansions themselves, a semigroup composition and the square
function of single basis elements; then empirical_lp_sweep once.
Inputs are sums of the first B+1 basis elements with seeded coefficients,
sampled by the benchmark's own basis code (reference.family_matrix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import reference as ref
from harness import gap_within

NAME = "operators"
PARAMS = (1.5, -0.7)
BANDS = (16, 32, 64)
GRID_EXTRA = 8          # Gauss order B + 8: exact for every product the checks need
T1, T2 = 0.3, 0.2       # semigroup times; composition checks P_T2 P_T1 = P_{T1+T2}
SHIFT_C = 0.7           # multiplier z / (z + c), as a callable and as a Laplace profile
ATOMS = ((0.1, 0.7), (0.4, 0.6))
EXACT_TOL = 1e-9        # share of max |reference| for operators without a time grid
TGRID_TOL = 1e-4        # for operators integrated over a TGrid


@dataclass
class Setting:
    name: str
    style: str          # "sym", "restricted" or "nonsym": which chain rules apply
    family: str         # reference family of inputs and outputs
    f: object           # GridFunction
    coefs: np.ndarray   # expansion coefficients of f as the setting defines them
    parseval: float     # sum coefs^2 = parseval * |f|^2
    index: np.ndarray   # family index of each coefficient
    apply: object       # spec -> GridFunction
    specs: list         # (label, OperatorSpec)


@dataclass
class Band:
    B: int
    settings: list
    single: list        # (label, M, element index, GridFunction)


@dataclass
class State:
    tj: object
    bands: list


def _ladder_root(a, b, k):
    return math.sqrt(k * (k + a + b + 1.0))


def setup(tj, seed: int, out_dir: str) -> State:
    a, b = PARAMS
    op, quad = tj.operators, tj.quadrature
    params = tj.basis.JacobiParams(a, b)
    laplace_grid = quad.TGrid(1e-6, 60.0)
    atoms = tj.kernels.DiscreteMeasure(*ATOMS)
    unit = tj.kernels.DiscreteMeasure((T1,), (1.0,))
    Spec = op.OperatorSpec

    def multipliers():
        return [("semigroup", Spec("semigroup", t=T1)),
                ("unit-atom", Spec("multiplier", multiplier=unit)),
                ("atoms", Spec("multiplier", multiplier=atoms)),
                ("callable", Spec("multiplier", multiplier=lambda z: z / (z + SHIFT_C))),
                ("laplace", Spec("multiplier", tgrid=laplace_grid,
                                 multiplier=("laplace", lambda t: np.exp(-SHIFT_C * t))))]

    sym_kinds = [("riesz-2", Spec("riesz", N=2)), ("maximal", Spec("maximal")),
                 ("square-M1", Spec("square", M=1)), ("square-N1", Spec("square", N=1))]
    restricted_kinds = [("riesz-interlaced-1", Spec("riesz_interlaced", N=1)),
                        ("maximal", Spec("maximal")),
                        ("square-interlaced-M1N1", Spec("square_interlaced", M=1, N=1))]
    nonsym_kinds = [("riesz-1", Spec("riesz", N=1)),
                    ("riesz-interlaced-2", Spec("riesz_interlaced", N=2)),
                    ("maximal", Spec("maximal")), ("square-N1", Spec("square", N=1)),
                    ("square-interlaced-M1N2", Spec("square_interlaced", M=1, N=2))]

    bands = []
    for B in BANDS:
        rng = np.random.default_rng([seed, B])
        c = rng.standard_normal(B + 1)
        order = B + GRID_EXTRA
        g_mu = quad.gauss_jacobi_grid(params, order, "mu_full")
        g_th = quad.gauss_jacobi_grid(params, order, "theta_full")
        g_plus = quad.gauss_jacobi_grid(params, order, "mu_plus")
        g_fn = quad.gauss_jacobi_grid(params, order, "theta_plus")
        n = np.arange(B + 1)

        def sample(grid, family):
            return op.GridFunction(grid, c @ ref.family_matrix(a, b, family, B + 1, grid.nodes))

        f_mu, f_th = sample(g_mu, "sym_poly"), sample(g_th, "sym_fn")
        sym_rows = ref.family_matrix(a, b, "sym_poly", 2 * B + 2, g_plus.nodes)
        # inputs sum c_n e_n with e_n = sqrt2 Phi_{2n(+1)} orthonormal in mu+;
        # the restricted displays pair f with Phi_{2n(+1)}: d_n = c_n / sqrt2
        f_even = op.GridFunction(g_plus, math.sqrt(2.0) * c @ sym_rows[0::2])
        f_odd = op.GridFunction(g_plus, math.sqrt(2.0) * c @ sym_rows[1::2])
        f_fn = sample(g_fn, "jacobi_fn")
        settings = [
            Setting("mu_full", "sym", "sym_poly", f_mu, c, 1.0, n,
                    lambda s, f=f_mu, B=B: op.apply_operator(s, f, B),
                    multipliers() + sym_kinds),
            Setting("theta_full", "sym", "sym_fn", f_th, c, 1.0, n,
                    lambda s, f=f_th, B=B: op.apply_operator(s, f, B),
                    multipliers() + sym_kinds),
            Setting("transfer", "sym", "sym_fn", f_th, c, 1.0, n,
                    lambda s, f=f_th, B=B, g=g_mu: op.transfer_function_setting(s, f, B, g),
                    multipliers() + sym_kinds[:3]),
            Setting("restricted-even", "restricted", "sym_poly", f_even, c / math.sqrt(2.0),
                    0.5, 2 * n,
                    lambda s, f=f_even, B=B: op.apply_restricted(s, f, B, "even"),
                    multipliers() + restricted_kinds),
            Setting("restricted-odd", "restricted", "sym_poly", f_odd, c / math.sqrt(2.0),
                    0.5, 2 * n + 1,
                    lambda s, f=f_odd, B=B: op.apply_restricted(s, f, B, "odd"),
                    multipliers() + restricted_kinds),
            Setting("nonsym", "nonsym", "jacobi_fn", f_fn, c, 1.0, n,
                    lambda s, f=f_fn, B=B: op.nonsym_apply(s, f, B),
                    multipliers() + nonsym_kinds),
        ]
        single = []
        for M in (1, 2):
            k = int(rng.integers(1, B + 1))
            vals = ref.family_matrix(a, b, "sym_poly", k + 1, g_mu.nodes)[k]
            single.append((f"square-M{M}-element-{k}", M, k, op.GridFunction(g_mu, vals)))
        bands.append(Band(B, settings, single))
    return State(tj, bands)


def prepare(state: State, r: int) -> None:
    return None


def body(state: State, _, tally) -> dict:
    op = state.tj.operators
    Spec = op.OperatorSpec
    out = {}
    for band in state.bands:
        B = band.B
        for s in band.settings:
            if s.style == "restricted":
                out[B, s.name, "expand"] = tally.call(
                    "expand_restricted", op.expand_restricted, s.f, B, s.name.split("-")[1])
            elif s.name != "transfer":
                out[B, s.name, "expand"] = tally.call("expand", op.expand, s.f, B)
            for label, spec in s.specs:
                out[B, s.name, label] = tally.call(f"{s.name} {label}", s.apply, spec)
        mu = band.settings[0]
        first = out[B, mu.name, "semigroup"]
        out[B, "composition"] = tally.call(
            "semigroup composition", lambda: op.apply_operator(
                Spec("semigroup", t=T2), op.GridFunction(mu.f.grid, first.values), B))
        out[B, "long-semigroup"] = tally.call(
            "semigroup", op.apply_operator, Spec("semigroup", t=T1 + T2), mu.f, B)
        for label, M, k, f in band.single:
            out[B, label] = tally.call(label, op.apply_operator, Spec("square", M=M), f, k + 1)
    params = state.tj.basis.JacobiParams(*PARAMS)
    out["lp"] = tally.call("empirical_lp_sweep", state.tj.verify.empirical_lp_sweep,
                           params, 2.0, weights=((0.0, 0.0), (1.0, 1.0)))
    return out


# --- checks -------------------------------------------------------------------

def _chain(s: Setting, kind: str, N: int, idx: int):
    """(coefficient, a', b', image index) of the chain part of `kind` on
    element idx of the setting's family, or None when the image vanishes."""
    a, b = PARAMS
    if kind in ("semigroup", "multiplier", "maximal") or N == 0:
        return 1.0, a, b, idx
    if s.style == "sym":
        # DD Phi_{2k} = -r_k Phi_{2k-1},  DD Phi_{2k+1} = r_{k+1} Phi_{2k+2}
        coef, n = 1.0, idx
        for _ in range(N):
            if n % 2 == 0:
                if n == 0:
                    return None
                coef, n = -coef * _ladder_root(a, b, n // 2), n - 1
            else:
                coef, n = coef * _ladder_root(a, b, (n + 1) // 2), n + 1
        return coef, a, b, n
    if s.style == "restricted":
        # interlaced chains: Phi_{2k} -> (-r_k)^N Phi_{2k - N mod 2},
        # Phi_{2k+1} -> (-r_{k+1})^N Phi_{2k+1 + N mod 2}
        if idx % 2 == 0:
            if idx == 0:
                return None
            return (-_ladder_root(a, b, idx // 2)) ** N, a, b, idx - N % 2
        return (-_ladder_root(a, b, (idx + 1) // 2)) ** N, a, b, idx + N % 2
    # D phi_n^{a,b} = -r_n phi_{n-1}^{a+1,b+1};  D* phi_m^{a+1,b+1} = -r_{m+1} phi_{m+1}^{a,b}
    coef, n, aa, bb = 1.0, idx, a, b
    plain = kind in ("riesz", "square")
    for i in range(N):
        if plain or i % 2 == 0:
            if n == 0:
                return None
            coef, n, aa, bb = -coef * _ladder_root(aa, bb, n), n - 1, aa + 1.0, bb + 1.0
        else:
            coef, n, aa, bb = (-coef * _ladder_root(aa - 1.0, bb - 1.0, n + 1), n + 1,
                               aa - 1.0, bb - 1.0)
    return coef, aa, bb, n


def _image_rows(s: Setting, kind: str, N: int, theta):
    """Per coefficient: chain factor and image element values (rows)."""
    coefs, rows = [], []
    for idx in s.index:
        img = _chain(s, kind, N, int(idx))
        if img is None:
            coefs.append(0.0)
            rows.append(np.zeros(theta.shape))
            continue
        coef, aa, bb, n = img
        coefs.append(coef)
        rows.append(ref.family_matrix(aa, bb, s.family, n + 1, theta)[n])
    return np.array(coefs), np.array(rows)


def _multiplier(label: str, z: np.ndarray) -> np.ndarray:
    if label in ("semigroup", "unit-atom"):
        return np.exp(-T1 * z)
    if label == "atoms":
        return sum(w * np.exp(-t * z) for t, w in zip(*ATOMS))
    return z / (z + SHIFT_C)


def _close(got, want, tol: float) -> bool:
    return gap_within(np.max(np.abs(got.values - want)) / np.max(np.abs(want)), tol)


def _check_setting(s: Setting, B: int, out: dict, tally) -> None:
    a, b = PARAMS
    theta = s.f.grid.nodes
    z = ref.family_speeds(a, b, "sym_poly" if s.style != "nonsym" else "jacobi_fn",
                          int(s.index[-1]) + 1)[s.index]
    rows = ref.family_matrix(a, b, s.family, int(s.index[-1]) + 1, theta)[s.index]
    tag = f"{s.name} B={B}"
    if (B, s.name, "expand") in out:
        def parseval():
            got = out[B, s.name, "expand"]
            norm2 = float(s.f.values ** 2 @ s.f.grid.weights)
            gap_within(np.max(np.abs(got - s.coefs)) / np.max(np.abs(s.coefs)), 1e-10)
            return gap_within(abs(float(got @ got) - s.parseval * norm2) / norm2, 1e-10)
        tally.expect(f"expansion coefficients and Parseval {tag}", parseval)

    d = s.coefs
    for label, spec in s.specs:
        got = out[B, s.name, label]
        name = f"{label} {tag}"
        if spec.kind in ("semigroup", "multiplier"):
            tol = TGRID_TOL if label == "laplace" else EXACT_TOL
            want = (d * _multiplier(label, z)) @ rows
            tally.expect(f"{name} matches the spectral reference",
                         lambda got=got, want=want, tol=tol: _close(got, want, tol))
        elif spec.kind.startswith("riesz"):
            coef, img = _image_rows(s, spec.kind, spec.N, theta)
            if spec.N == 2 and s.style == "sym":
                # eigenfunction law: R_2 = (lambda_0 - lambda) / lambda
                lam0 = ((a + b + 1.0) / 2.0) ** 2
                want = (d * (lam0 - z ** 2) / z ** 2) @ rows
            else:
                want = (d * coef * z ** (-spec.N)) @ img
            tally.expect(f"{name} matches the ladder reference",
                         lambda got=got, want=want: _close(got, want, EXACT_TOL))
        elif spec.kind == "maximal":
            # the trajectory is sampled on the time grid: compare at a node
            t_node = float(spec.time_grid().nodes[spec.time_grid().nodes <= T1][-1])
            ident = d @ rows
            upper = np.abs(d[:, None] * rows).sum(axis=0)
            semi = (d * np.exp(-t_node * z)) @ rows
            slack = EXACT_TOL * np.max(upper)

            def maximal_ok(got=got, ident=ident, upper=upper, semi=semi, slack=slack):
                v = got.values
                return (np.all(v >= np.abs(ident) - slack) and np.all(v >= np.abs(semi) - slack)
                        and np.all(v <= upper + slack))
            tally.expect(f"{name} between |f|, |P_t f| and sum |c_n e_n|", maximal_ok)
        else:
            coef, img = _image_rows(s, spec.kind, spec.N, theta)
            W = 2.0 * spec.M + 2.0 * spec.N
            A = (d * coef * (-z) ** spec.M)[:, None] * img
            # int_0^inf |sum_n A_n e^{-t z_n}|^2 t^{W-1} dt, term by term
            G = math.gamma(W) / (z[:, None] + z[None, :]) ** W
            want = np.sqrt(np.maximum(np.einsum("np,nm,mp->p", A, G, A), 0.0))
            tally.expect(f"{name} matches the closed-form time integral",
                         lambda got=got, want=want: _close(got, want, TGRID_TOL))
    tally.expect(f"unit-atom multiplier equals the semigroup bit for bit {tag}",
                 lambda: np.array_equal(out[B, s.name, "unit-atom"].values,
                                        out[B, s.name, "semigroup"].values))


def check(state: State, _, out: dict, tally) -> None:
    a, b = PARAMS
    for band in state.bands:
        B = band.B
        for s in band.settings:
            _check_setting(s, B, out, tally)
        tally.expect(f"semigroup composition B={B}",
                     lambda B=B: _close(out[B, "composition"], out[B, "long-semigroup"].values,
                                        1e-10))
        for label, M, k, f in band.single:
            # square function of an eigenfunction: sqrt(Gamma(2M) / 4^M) |f|
            want = math.sqrt(math.gamma(2 * M) / 4.0 ** M) * np.abs(f.values)
            tally.expect(f"{label} eigenfunction law B={B}",
                         lambda label=label, B=B, want=want: _close(out[B, label], want, TGRID_TOL))

    def lp():
        # unweighted p = 2: the discretized interlaced Riesz transform is
        # U diag(factor / 2) V^T with orthonormal U, V (the 1/2 is the
        # restricted mu+ pairing); its norm is max |factor| / 2, n <= 16
        lam = ((np.arange(1, 17) + (a + b + 1.0) / 2.0)) ** 2
        lam0 = ((a + b + 1.0) / 2.0) ** 2
        want = 0.5 * float(np.max(np.sqrt((lam - lam0) / lam)))
        unweighted, weighted = out["lp"]
        for est in unweighted.details["estimates"]:
            gap_within(abs(est - want) / want, 1e-10)
        return weighted.passed and np.all(np.isfinite(weighted.details["estimates"]))
    tally.expect("empirical_lp_sweep unweighted norm equals max |factor| / 2", lp)
