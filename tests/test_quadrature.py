"""Grid exactness, orthonormality through the grids, time-grid integrals."""

from __future__ import annotations

import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from trigjacobi.basis import (
    JACOBI_FN,
    KINDS,
    SYM_FN,
    SYM_POLY,
    TRIG_POLY,
    BasisElement,
    JacobiParams,
    basis_matrix,
    eval_basis,
)
from trigjacobi import basis, quadrature
from trigjacobi.measure import interval_measure
from trigjacobi.quadrature import (
    TGrid,
    gauss_jacobi_grid,
    inner_product,
    t_norm,
)

PARAM_PAIRS = [(0.0, 0.0), (-0.5, -0.5), (1.5, -0.7), (-0.7, -0.6), (2.5, 3.5)]


def grids_for(a, b, order=40):
    p = JacobiParams(a, b)
    return p, {tag: gauss_jacobi_grid(p, order, tag)
               for tag in ("mu_plus", "mu_full", "theta_plus", "theta_full")}


class TestThetaGrids:
    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    def test_total_mass(self, a, b):
        p, g = grids_for(a, b)
        assert_allclose(inner_product(g["mu_plus"], np.ones(40), np.ones(40)),
                        interval_measure(p, 0.0, math.pi), rtol=1e-12)
        assert_allclose(inner_product(g["mu_full"], np.ones(80), np.ones(80)),
                        2.0 * interval_measure(p, 0.0, math.pi), rtol=1e-12)

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    @pytest.mark.parametrize(
        "kind,tag",
        [(TRIG_POLY, "mu_plus"), (JACOBI_FN, "theta_plus"),
         (SYM_POLY, "mu_full"), (SYM_FN, "theta_full")],
    )
    def test_orthonormality(self, a, b, kind, tag):
        p, g = grids_for(a, b)
        grid = g[tag]
        nmax = 20
        vals = np.stack([eval_basis(BasisElement(p, n, kind), grid.nodes)
                         for n in range(nmax + 1)])
        gram = (vals * grid.weights) @ vals.T
        assert_allclose(gram, np.eye(nmax + 1), atol=1e-8)

    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    def test_cross_parity_vanishes(self, a, b):
        p, g = grids_for(a, b)
        grid = g["mu_full"]
        even = eval_basis(BasisElement(p, 4, SYM_POLY), grid.nodes)
        odd = eval_basis(BasisElement(p, 7, SYM_POLY), grid.nodes)
        assert abs(inner_product(grid, even, odd)) < 1e-14 * 10

    def test_exactness_boundary(self):
        # order m integrates x-degree 2m-1; P_3 * P_3 needs only m >= 4,
        # and m = 3 must already fail for degree-6 content
        p = JacobiParams(0.3, 0.7)
        elem = BasisElement(p, 3, TRIG_POLY)
        exact_grid = gauss_jacobi_grid(p, 4, "mu_plus")
        vals = eval_basis(elem, exact_grid.nodes)
        assert_allclose(inner_product(exact_grid, vals, vals), 1.0, rtol=1e-12)
        coarse = gauss_jacobi_grid(p, 3, "mu_plus")
        cvals = eval_basis(elem, coarse.nodes)
        assert abs(inner_product(coarse, cvals, cvals) - 1.0) > 1e-6

    def test_callable_and_array_agree(self):
        p = JacobiParams(0.0, 0.0)
        grid = gauss_jacobi_grid(p, 10)
        ones = np.ones(10)
        assert inner_product(grid, np.cos, ones) == pytest.approx(
            inner_product(grid, np.cos(grid.nodes), ones))

    def test_shape_mismatch(self):
        grid = gauss_jacobi_grid(JacobiParams(0.0, 0.0), 10)
        with pytest.raises(ValueError):
            inner_product(grid, np.ones(11), np.ones(10))
        with pytest.raises(ValueError):
            inner_product(grid, np.ones(10), np.ones(11))
        with pytest.raises(ValueError):
            gauss_jacobi_grid(JacobiParams(0.0, 0.0), 10, "legendre")


class TestGridTables:
    @pytest.mark.parametrize("a,b", PARAM_PAIRS)
    def test_a_grid_read_is_basis_matrix_at_its_nodes(self, a, b):
        # indices up to the table's size read the grid's table; one past it
        # builds its own table, as a read at bare points does
        p, g = grids_for(a, b, order=12)
        for tag, grid in g.items():
            nodes = np.array(grid.nodes)
            for kind in KINDS:
                sym = kind in (SYM_POLY, SYM_FN)
                top = 2 * grid.order if sym else grid.order
                for n in (np.arange(top), np.array([top - 1, 0, 5, 0]), np.arange(top + 1)):
                    if tag.endswith("_full") and not sym:  # defined on (0, pi) only
                        with pytest.raises(ValueError):
                            basis_matrix(p, kind, n, grid)
                        continue
                    assert np.array_equal(basis_matrix(p, kind, n, grid),
                                          basis_matrix(p, kind, n, nodes))
                if not (tag.endswith("_full") and not sym):
                    assert np.array_equal(grid.table(kind),
                                          basis_matrix(p, kind, np.arange(top), nodes))

    def test_tables_are_built_on_their_first_fitting_read(self, monkeypatch):
        builds = []
        theta_table = basis._theta_table

        def counted(params, theta, tables):
            builds.append((params, [rows for *_, rows in tables]))
            return theta_table(params, theta, tables)

        monkeypatch.setattr(basis, "_theta_table", counted)
        p = JacobiParams(1.5, -0.7)
        grid = gauss_jacobi_grid(p, 10, "mu_full")
        assert builds == []
        # another parameter pair, a derivative and an index past the table
        basis_matrix(p.shifted(1), SYM_POLY, [3], grid)
        basis_matrix(p, SYM_POLY, [3], grid.nodes[10:], 1)
        basis_matrix(p, SYM_POLY, [20], grid)
        assert builds == [(p.shifted(1), [2]), (p, [2]), (p, [11])]
        # one table per kind, each built once, of both parities
        for _ in range(3):
            basis_matrix(p, SYM_FN, np.arange(20), grid)
            basis_matrix(p, SYM_POLY, [19, 0], grid)
        assert builds[3:] == [(p, [10, 10])] * 2
        assert grid.table(SYM_FN).shape == grid.table(SYM_POLY).shape == (20, 20)
        # the (0, pi) kinds build the polynomial parity only
        half = gauss_jacobi_grid(p, 10, "theta_plus")
        basis_matrix(p, JACOBI_FN, [9, 2], half)
        basis_matrix(p, TRIG_POLY, [9, 2], half)
        assert builds[5:] == [(p, [10])] * 2
        assert half.table(JACOBI_FN).shape == (10, 10)

    def test_arrays_are_read_only(self):
        grid = gauss_jacobi_grid(JacobiParams(1.5, -0.7), 8, "theta_full")
        for array in (grid.nodes, grid.weights, grid.table(SYM_POLY), grid.table(SYM_FN)):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_a_read_is_a_copy_of_the_table(self):
        grid = gauss_jacobi_grid(JacobiParams(1.5, -0.7), 8, "theta_full")
        rows = basis_matrix(grid.params, SYM_FN, [3, 3], grid)
        rows *= 2.0
        assert np.array_equal(grid.table(SYM_FN)[[3, 3]], rows / 2.0)


class TestTGrid:
    def test_defaults_pass_validation(self):
        g = TGrid()
        assert g.nodes[0] == pytest.approx(1e-4)
        assert g.nodes[-1] == pytest.approx(40.0)

    def test_compares_and_hashes_by_its_range_and_density(self):
        # the arrays follow from the three fields and take no part
        assert TGrid() == TGrid() and hash(TGrid()) == hash(TGrid())
        assert TGrid(1e-4, 40.0, 4) == TGrid(1e-4, 40.0, 8)
        assert TGrid(1e-3, 40.0) != TGrid()
        assert len({TGrid(), TGrid(), TGrid(1e-3, 40.0)}) == 2

    def test_arrays_are_read_only(self):
        g = TGrid()
        with pytest.raises(ValueError):
            g.nodes[0] = 1.0
        with pytest.raises(ValueError):
            g.log_weights[0] = 1.0

    def test_coarse_grid_doubles_its_density(self):
        # 4 per decade misses the check on [1e-4, 40]; the one rule doubles
        # every grid that misses, whatever density it starts from
        g = TGrid(t_min=1e-4, t_max=40.0, points_per_decade=4)
        assert g.points_per_decade == 8
        assert np.array_equal(g.nodes, TGrid(1e-4, 40.0, 8).nodes)

    @pytest.mark.parametrize("t_min", [3.0, 4.0, 5.0])
    def test_short_range_doubles_its_density(self, t_min):
        # on less than a decade far out in t, 16 and 32 per decade miss the
        # check; 64 passes
        g = TGrid(t_min, 40.0)
        assert g.points_per_decade == 64
        W = 2.0
        got = g.integrate(np.exp(-2.0 * g.nodes), W)
        assert_allclose(got, self._truncated_gamma(g, W, 2.0), rtol=1e-6)
        # the recorded density rebuilds the same grid
        back = TGrid(g.t_min, g.t_max, g.points_per_decade)
        assert np.array_equal(back.nodes, g.nodes)
        assert np.array_equal(back.log_weights, g.log_weights)

    def test_passing_grid_keeps_its_density(self):
        assert TGrid().points_per_decade == 16
        assert TGrid(5e-3, 40.0).points_per_decade == 16

    def test_raises_once_doublings_run_out(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_DOUBLINGS", 2)
        assert TGrid(5.0, 40.0).points_per_decade == 64
        monkeypatch.setattr(quadrature, "_DOUBLINGS", 1)
        with pytest.raises(ValueError, match="quadrature check"):
            TGrid(5.0, 40.0)

    def test_far_range_checks_against_its_closed_form(self):
        # both lower incomplete Gammas round to 1 out here; the check
        # integrates e^{-2(t - t_min)}, whose closed form reads
        # 1/2 (1 - e^-20), not 0
        with pytest.raises(ValueError, match="quadrature check") as info:
            TGrid(30.0, 40.0)
        quoted = re.search(r"vs (?:np\.float64\()?([-+.\deE]+)", str(info.value))
        want = float(quoted.group(1))
        assert want == pytest.approx(0.5 * -math.expm1(-20.0), rel=1e-6)

    def test_range_where_e_to_the_minus_2t_underflows_is_checked(self):
        # e^{-2 t} underflows to 0 from t of about 372 on, so a check on it
        # compares 0 with 0; nine nodes on [400, 500] cannot resolve
        # e^{-2(t - 400)}, nor can the doublings
        with pytest.raises(ValueError, match="quadrature check"):
            TGrid(400.0, 500.0)

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            TGrid(t_min=0.0, t_max=1.0)
        with pytest.raises(ValueError):
            TGrid(t_min=2.0, t_max=1.0)

    @pytest.mark.parametrize("t_min,t_max", [(1e-4, math.inf), (5e-3, 1e308),
                                             (1e-320, 1.0)])
    def test_overflowing_range_ratio_is_rejected(self, t_min, t_max):
        # the decade count would be infinite: a bad range, not an OverflowError
        with pytest.raises(ValueError, match="too wide"):
            TGrid(t_min, t_max)

    @pytest.mark.parametrize("t_max", [1e200, 1e300])
    def test_nan_quadrature_check_fails(self, t_max):
        # t^2 overflows at the top nodes and 0 * inf turns the check's
        # integral into NaN, which must fail the check, not pass it
        with pytest.raises(ValueError, match="quadrature check.*nan"):
            TGrid(1e-4, t_max)

    @staticmethod
    def _truncated_gamma(g: TGrid, W: float, s: float) -> float:
        from scipy.special import gammainc

        return (math.gamma(W) / s**W) * (gammainc(W, s * g.t_max)
                                         - gammainc(W, s * g.t_min))

    @pytest.mark.parametrize("W", [1.0, 2.0, 3.0, 4.0])
    def test_incomplete_gamma_family(self, W):
        # int t^{W-1} e^{-st} dt over the grid range, closed form
        g = TGrid(t_min=1e-5, t_max=60.0)
        s = 3.0
        got = g.integrate(np.exp(-s * g.nodes), W)
        assert_allclose(got, self._truncated_gamma(g, W, s), rtol=1e-6)

    def test_integrate_batches(self):
        g = TGrid()
        samples = np.stack([np.exp(-g.nodes), np.exp(-2.0 * g.nodes)])
        out = g.integrate(samples, 1.0)
        assert out.shape == (2,)
        want = [self._truncated_gamma(g, 1.0, 1.0), self._truncated_gamma(g, 1.0, 2.0)]
        assert_allclose(out, want, rtol=1e-6)

    def test_end_rule_order(self):
        # Gregory's end corrections through fifth differences: halving the
        # step (8 to 16 points per decade on [5e-3, 40], 31 to 62 steps)
        # cuts the error of the grid's own check integrals at least 32-fold,
        # and at 16 per decade it is within 1e-9
        grids = [TGrid(5e-3, 40.0, 8), TGrid(5e-3, 40.0, 16)]
        assert [g.nodes.size - 1 for g in grids] == [31, 62]
        coarse, fine = ([abs(g.integrate(np.exp(-2.0 * g.nodes), W)
                             / self._truncated_gamma(g, W, 2.0) - 1.0) for W in (1.0, 2.0)]
                        for g in grids)
        for c, f in zip(coarse, fine):
            assert f <= c / 32.0
        assert max(fine) <= 1e-9

    @pytest.mark.parametrize("c", [-1.0, 0.37])
    def test_l1_norm_splits_at_the_sign_change(self, c):
        # |f| has a kink at t = e^c, between two nodes; the rule on |f|
        # alone misses the integral by over 2e-4 at 16 points per decade
        g = TGrid(5e-3, 40.0, 16)
        f = (np.log(g.nodes) - c) * np.exp(-g.nodes)
        want = quad(lambda t: abs(math.log(t) - c) * math.exp(-t), g.t_min, g.t_max,
                    points=[math.exp(c)], epsabs=0.0, epsrel=1e-13, limit=200)[0]
        assert abs(g.integrate(np.abs(f), 1.0) / want - 1.0) > 2e-4
        assert abs(t_norm(g, f, 1) / want - 1.0) <= 1e-5

    @pytest.mark.parametrize("d", [0.0123, 0.3, 1.7])
    def test_sup_norm_interpolates_the_peak(self, d):
        # t / (t^2 + d^2) peaks at t = d with 1 / (2d), between two nodes;
        # the grid maximum alone is 1.4e-4 to 6.4e-4 low
        g = TGrid(5e-3, 40.0, 16)
        f = g.nodes / (g.nodes**2 + d * d)
        got = t_norm(g, np.stack([f, -f]), math.inf)
        assert np.all(got >= np.max(f))
        assert_allclose(got, 0.5 / d, rtol=1e-6)

    def test_sup_norm_keeps_the_grid_maximum(self):
        g = TGrid(5e-3, 40.0, 16)
        f = np.exp(-g.nodes)
        # a maximum at an end node, or next to a zero sample, is the grid's
        peaked = g.nodes / (g.nodes**2 + 0.09)
        peaked[np.argmax(peaked) + 1] = 0.0
        got = t_norm(g, np.stack([f, peaked, -f[::-1]]), math.inf)
        assert np.array_equal(got, [f[0], np.max(peaked), f[0]])
        # a NaN sample anywhere makes the sup NaN
        for i in (0, 20, f.size - 1):
            bad = f.copy()
            bad[i] = np.nan
            assert math.isnan(t_norm(g, bad, math.inf))

    def test_t_norm_modes(self):
        g = TGrid()
        samples = np.exp(-g.nodes)
        # ||e^{-t}||_{L^2(t dt)} = sqrt(Gamma(2)/4) = 1/2 up to the cut tails
        assert_allclose(t_norm(g, samples, 2, W=2.0), 0.5, rtol=1e-6)
        assert_allclose(t_norm(g, samples, 1, W=1.0),
                        self._truncated_gamma(g, 1.0, 1.0), rtol=1e-6)
        assert t_norm(g, samples, math.inf) == pytest.approx(math.exp(-1e-4))
        with pytest.raises(ValueError):
            t_norm(g, samples, 3)


def test_cli_import_loads_scipy_linalg():
    # loaded with the package, not on the first grid a timed check builds
    code = "import sys, trigjacobi.cli; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "True"


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(min_value=-0.9, max_value=2.5),
    b=st.floats(min_value=-0.9, max_value=2.5),
    n=st.integers(min_value=0, max_value=8),
    m=st.integers(min_value=0, max_value=8),
)
def test_symmetrized_orthonormality_property(a, b, n, m):
    p = JacobiParams(a, b)
    grid = gauss_jacobi_grid(p, 24, "mu_full")
    fn = eval_basis(BasisElement(p, n, SYM_POLY), grid.nodes)
    gn = eval_basis(BasisElement(p, m, SYM_POLY), grid.nodes)
    got = inner_product(grid, fn, gn)
    assert got == pytest.approx(1.0 if n == m else 0.0, abs=5e-9)
