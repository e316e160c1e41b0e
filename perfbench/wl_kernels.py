"""kernel-grid: library-style kernel evaluation at moderate times (t >= 0.05)
on dense point sets, at (1.5, -0.7) and (-0.7, -0.6).

Per parameter pair, one round makes
  - single-time eval_matrix calls (even and odd) on a fixed Gauss grid and
    symmetrized_kernel_pairs calls on a fixed set of pairs, along a time
    trajectory: after the first time these read tables already built;
  - symmetrized_kernel_pairs calls on point sets drawn fresh for the round:
    each builds new tables.
Many points and short series: the opposite shape of verify-quick. Both pairs
have min(alpha, beta) < -1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import reference as ref
from harness import gap_within

NAME = "kernel-grid"
PAIRS = ((1.5, -0.7), (-0.7, -0.6))
GRID_ORDER = 160            # fixed Gauss grid: 160^2 = 25600 pairs per matrix
FIXED_PAIRS = 500           # fixed symmetrized set, closed under swapping
TRAJECTORY = (0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.8, 1.3)
SEMIGROUP = ((0.1, 0.2, 0.3), (0.2, 0.3, 0.5), (0.3, 0.5, 0.8), (0.5, 0.8, 1.3))
FRESH_SETS = 3              # per pair and round
FRESH_PAIRS = 1000
FRESH_T = 0.05
REF_POINTS = 4              # reference values per fresh set
SHIFT_T = (0.05, 0.3)
KERNEL_TOL = 1e-10          # share of the sum of the absolute values of the terms


@dataclass
class Case:
    params: object
    a: float
    b: float
    grid: object            # mu_plus ThetaGrid
    fixed_theta: np.ndarray
    fixed_phi: np.ndarray


@dataclass
class State:
    tj: object
    seed: int
    cases: list


def _signed_pairs(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    # points of (-pi, pi)^2 away from 0 and +-pi, where the parts are smooth
    mag = rng.uniform(0.02, math.pi - 0.02, size=(2, n))
    sign = rng.choice((-1.0, 1.0), size=(2, n))
    return mag[0] * sign[0], mag[1] * sign[1]


def setup(tj, seed: int, out_dir: str) -> State:
    rng = np.random.default_rng([seed, 0])
    cases = []
    for a, b in PAIRS:
        params = tj.basis.JacobiParams(a, b)
        grid = tj.quadrature.gauss_jacobi_grid(params, GRID_ORDER, "mu_plus")
        th, ph = _signed_pairs(rng, FIXED_PAIRS // 2)
        cases.append(Case(params, a, b, grid, np.concatenate([th, ph]),
                          np.concatenate([ph, th])))
    return State(tj, seed, cases)


def prepare(state: State, r: int) -> list:
    rng = np.random.default_rng([state.seed, 1, r])
    return [[_signed_pairs(rng, FRESH_PAIRS) for _ in range(FRESH_SETS)]
            for _ in state.cases]


def body(state: State, fresh: list, tally) -> list:
    kernels = state.tj.kernels
    out = []
    for case, sets in zip(state.cases, fresh):
        even = kernels.poisson_kernel(case.params, "even")
        odd = kernels.poisson_kernel(case.params, "odd")
        nodes = case.grid.nodes
        traj = {}
        for t in TRAJECTORY:
            traj[t] = (
                tally.call("eval_matrix even", even.eval_matrix, nodes, nodes, t),
                tally.call("eval_matrix odd", odd.eval_matrix, nodes, nodes, t),
                tally.call("symmetrized fixed", kernels.symmetrized_kernel_pairs,
                           case.params, case.fixed_theta, case.fixed_phi, t))
        got = [tally.call("symmetrized fresh", kernels.symmetrized_kernel_pairs,
                          case.params, th, ph, FRESH_T) for th, ph in sets]
        out.append((traj, got))
    return out


def check(state: State, fresh: list, out, tally) -> None:
    for case, sets, (traj, got) in zip(state.cases, fresh, out):
        tag = f"({case.a:g}, {case.b:g})"
        _check_trajectory(state, case, traj, tag, tally)
        for (th, ph), values in zip(sets, got):
            _check_reference(case, th, ph, values, tag, tally)


def _check_trajectory(state, case, traj, tag, tally) -> None:
    w = case.grid.weights
    half = FIXED_PAIRS // 2

    def symmetric():
        for t in TRAJECTORY:
            E, O, S = traj[t]
            for K in (E, O):
                gap_within(np.max(np.abs(K - K.T)) / np.max(np.abs(K)), 1e-12)
            gap_within(np.max(np.abs(S[:half] - S[half:])) / np.max(np.abs(S)), 1e-12)
        return True
    tally.expect(f"kernels symmetric in (theta, phi) {tag}", symmetric)

    tally.expect(f"even part positive {tag}",
                 lambda: all(np.min(traj[t][0]) > 0.0 for t in TRAJECTORY))

    def semigroup():
        # the doubled half-line kernels compose through mu+ quadrature
        for s, t, st in SEMIGROUP:
            for i in (0, 1):
                Ks, Kt, Kst = 2.0 * traj[s][i], 2.0 * traj[t][i], 2.0 * traj[st][i]
                comp = Ks @ (w[:, None] * Kt)
                gap_within(np.max(np.abs(comp - Kst)) / np.max(np.abs(Kst)), 1e-9)
        return True
    tally.expect(f"semigroup law through Gauss quadrature {tag}", semigroup)

    def shift():
        # odd part = (1/4) sin(theta) sin(phi) x even part at (a+1, b+1)
        up = state.tj.kernels.poisson_kernel(case.params.shifted(1.0), "even")
        nodes = case.grid.nodes
        s = np.sin(nodes)
        for t in SHIFT_T:
            want = 0.25 * np.outer(s, s) * up.eval_matrix(nodes, nodes, t)
            odd = traj[t][1]
            gap_within(np.max(np.abs(odd - want)) / np.max(np.abs(want)), 1e-10)
        return True
    tally.expect(f"odd-part shift identity {tag}", shift)


def _check_reference(case, th, ph, values, tag, tally) -> None:
    idx = np.arange(REF_POINTS) * (th.size // REF_POINTS)
    t, p = th[idx], ph[idx]

    def close():
        at, ap = np.abs(t), np.abs(p)
        even, s_even = ref.kernel_even(case.a, case.b, at, ap, FRESH_T, with_scale=True)
        odd, s_odd = ref.kernel_odd(case.a, case.b, at, ap, FRESH_T, with_scale=True)
        want = even[:, 0] + np.sign(t * p) * odd[:, 0]
        scale = s_even[:, 0] + s_odd[:, 0]
        return gap_within(np.max(np.abs(values[idx, 0] - want) / scale), KERNEL_TOL)
    tally.expect(f"symmetrized kernel matches the reference {tag}", close)
