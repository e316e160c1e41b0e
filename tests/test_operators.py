"""Operator tests: expansion roundtrips, spectral closed forms, kernel
cross-checks, parity assembly, and the psi-conjugation transference."""

import functools
import math

import numpy as np
import pytest
from scipy.special import gamma

from trigjacobi import basis
from trigjacobi.basis import (
    JACOBI_FN,
    SYM_FN,
    SYM_POLY,
    TRIG_POLY,
    BasisElement,
    JacobiParams,
    basis_matrix,
    coeff_A,
    eigenvalue,
    eval_basis,
    half_index,
    ladder_images,
    psi,
)
from trigjacobi.kernels import DiscreteMeasure, poisson_kernel, symmetrized_kernel_pairs
from trigjacobi.operators import (
    SETTINGS,
    GridFunction,
    OperatorSpec,
    apply_operator,
    apply_restricted,
    expand,
    expand_restricted,
    grid_function,
    nonsym_apply,
    restricted_family,
    spectral_table,
    split_parity,
    synthesize,
    transfer_function_setting,
)
from trigjacobi.quadrature import TGrid, gauss_jacobi_grid
from trigjacobi.verify import _restricted_matrix

PARAMS = JacobiParams(1.5, -0.7)
LEGENDRE = JacobiParams(0.0, 0.0)
CHEB = JacobiParams(-0.5, -0.5)  # lambda_0 = 0

ORDER = 48


def band_limited(params, kind, coefs, grid):
    """GridFunction with prescribed expansion coefficients."""
    return GridFunction(grid, synthesize(np.asarray(coefs, dtype=float),
                                         (params, kind, np.arange(len(coefs))), grid.nodes))


def random_coefs(rng, nmax):
    c = rng.standard_normal(nmax + 1)
    return c / np.linalg.norm(c)


class TestExpansion:
    @pytest.mark.parametrize("tag,kind", [("mu_full", SYM_POLY),
                                          ("theta_full", SYM_FN),
                                          ("theta_plus", JACOBI_FN)])
    def test_roundtrip(self, tag, kind):
        grid = gauss_jacobi_grid(PARAMS, ORDER, tag)
        coefs = np.zeros(9)
        coefs[[0, 2, 5]] = [0.25, 0.7, -1.3]
        f = band_limited(PARAMS, kind, coefs, grid)
        got = expand(f, 8)
        assert np.allclose(got, coefs, atol=1e-10)
        back = synthesize(got, (PARAMS, kind, np.arange(9)), grid.nodes)
        assert np.allclose(back, f.values, atol=1e-10)

    def test_restricted_coefficients_carry_half(self):
        # <Phi_4, Phi_4>_{mu+} = 1/2: the display coefficients are not an
        # orthonormal expansion and must not be renormalized
        grid = gauss_jacobi_grid(PARAMS, ORDER, "mu_plus")
        f = grid_function(grid, eval_basis(BasisElement(PARAMS, 4, SYM_POLY),
                                           grid.nodes))
        d_even = expand_restricted(f, 5, "even")
        want = np.zeros(6)
        want[2] = 0.5
        assert np.allclose(d_even, want, atol=1e-10)
        g = grid_function(grid, eval_basis(BasisElement(PARAMS, 7, SYM_POLY),
                                           grid.nodes))
        d_odd = expand_restricted(g, 5, "odd")
        want = np.zeros(6)
        want[3] = 0.5
        assert np.allclose(d_odd, want, atol=1e-10)

    def test_split_parity(self):
        grid = gauss_jacobi_grid(PARAMS, ORDER, "mu_full")
        e2 = BasisElement(PARAMS, 2, SYM_POLY)
        e3 = BasisElement(PARAMS, 3, SYM_POLY)
        f = grid_function(grid, eval_basis(e2, grid.nodes) + eval_basis(e3, grid.nodes))
        theta, fe, fo = split_parity(f)
        assert np.allclose(fe, eval_basis(e2, theta), atol=1e-12)
        assert np.allclose(fo, eval_basis(e3, theta), atol=1e-12)


class TestSemigroup:
    @pytest.mark.parametrize("n", [0, 1, 5, 8])
    def test_element_decay(self, n):
        grid = gauss_jacobi_grid(PARAMS, ORDER, "mu_full")
        f = grid_function(grid, eval_basis(BasisElement(PARAMS, n, SYM_POLY),
                                           grid.nodes))
        out = apply_operator(OperatorSpec("semigroup", t=0.37), f, 10)
        lam = eigenvalue(PARAMS, half_index(n))
        assert np.allclose(out.values, math.exp(-0.37 * math.sqrt(lam)) * f.values,
                           rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("params", [PARAMS, LEGENDRE, CHEB])
    def test_matches_kernel_quadrature(self, params):
        grid = gauss_jacobi_grid(params, ORDER, "mu_full")
        rng = np.random.default_rng(7)
        f = band_limited(params, SYM_POLY, random_coefs(rng, 10), grid)
        t = 0.6
        spectral = apply_operator(OperatorSpec("semigroup", t=t), f, 10)
        th = np.repeat(grid.nodes, grid.nodes.size)
        ph = np.tile(grid.nodes, grid.nodes.size)
        K = symmetrized_kernel_pairs(params, th, ph, t).reshape(
            grid.nodes.size, grid.nodes.size)
        quad = K @ (grid.weights * f.values)
        assert np.allclose(quad, spectral.values, rtol=1e-8, atol=1e-10)

    def test_composition_law(self):
        grid = gauss_jacobi_grid(PARAMS, ORDER, "mu_full")
        rng = np.random.default_rng(3)
        f = band_limited(PARAMS, SYM_POLY, random_coefs(rng, 12), grid)
        one = apply_operator(OperatorSpec("semigroup", t=0.9), f, 12)
        two = apply_operator(OperatorSpec("semigroup", t=0.4),
                             apply_operator(OperatorSpec("semigroup", t=0.5), f, 12), 12)
        assert np.allclose(one.values, two.values, rtol=1e-10, atol=1e-13)


class TestRiesz:
    @pytest.mark.parametrize("params", [PARAMS, LEGENDRE, CHEB])
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_order_two_is_multiplier(self, params, n):
        # DD^2 = lambda_0 - lambda spectrally, so the order-2 transform acts
        # by (lambda_0 - lambda)/lambda on each element
        grid = gauss_jacobi_grid(params, ORDER, "mu_full")
        f = grid_function(grid, eval_basis(BasisElement(params, n, SYM_POLY),
                                           grid.nodes))
        out = apply_operator(OperatorSpec("riesz", N=2), f, 10)
        lam = eigenvalue(params, half_index(n))
        want = (params.lam0 - lam) / lam * f.values
        assert np.allclose(out.values, want, rtol=1e-8, atol=1e-10)

    def test_annihilates_constants(self):
        grid = gauss_jacobi_grid(CHEB, ORDER, "mu_full")
        f = grid_function(grid, eval_basis(BasisElement(CHEB, 0, SYM_POLY),
                                           grid.nodes))
        out = apply_operator(OperatorSpec("riesz", N=1), f, 4)
        assert np.allclose(out.values, 0.0, atol=1e-14)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_parity_assembly(self, N):
        # restriction to (0,pi) assembles from the half-line transforms with
        # the parity-dependent chain signs, never absorbed
        grid = gauss_jacobi_grid(PARAMS, ORDER, "mu_full")
        plus = gauss_jacobi_grid(PARAMS, ORDER, "mu_plus")
        rng = np.random.default_rng(11)
        f = band_limited(PARAMS, SYM_POLY, random_coefs(rng, 12), grid)
        full = apply_operator(OperatorSpec("riesz", N=N), f, 12)
        theta, fe, fo = split_parity(f)
        assert np.allclose(theta, plus.nodes)
        ev = apply_restricted(OperatorSpec("riesz_interlaced", N=N),
                              GridFunction(plus, fe), 6, "even")
        od = apply_restricted(OperatorSpec("riesz_interlaced", N=N),
                              GridFunction(plus, fo), 6, "odd")
        assembled = 2.0 * ((-1.0) ** (N // 2) * ev.values
                           + (-1.0) ** ((N + 1) // 2) * od.values)
        half = grid.nodes.size // 2
        assert np.allclose(full.values[half:], assembled, rtol=1e-9, atol=1e-11)


class TestMultiplier:
    @pytest.mark.parametrize("setting", ["sym", "restricted", "nonsym"])
    def test_unit_atom_is_semigroup_bitwise(self, setting):
        t0 = 0.8
        atom = DiscreteMeasure((t0,), (1.0,))
        m_spec = OperatorSpec("multiplier", multiplier=atom)
        s_spec = OperatorSpec("semigroup", t=t0)
        rng = np.random.default_rng(5)
        if setting == "sym":
            grid = gauss_jacobi_grid(PARAMS, ORDER, "mu_full")
            f = band_limited(PARAMS, SYM_POLY, random_coefs(rng, 10), grid)
            a = apply_operator(m_spec, f, 10)
            b = apply_operator(s_spec, f, 10)
        elif setting == "restricted":
            grid = gauss_jacobi_grid(PARAMS, ORDER, "mu_plus")
            f = grid_function(grid, lambda th: np.sin(th) * np.exp(-th))
            a = apply_restricted(m_spec, f, 10, "odd")
            b = apply_restricted(s_spec, f, 10, "odd")
        else:
            grid = gauss_jacobi_grid(PARAMS, ORDER, "theta_plus")
            f = grid_function(grid, lambda th: np.sin(th) * np.exp(-th))
            a = nonsym_apply(m_spec, f, 10)
            b = nonsym_apply(s_spec, f, 10)
        assert np.array_equal(a.values, b.values)

    def test_atom_combination(self):
        nu = DiscreteMeasure((0.5, 2.0), (2.0, -3.0))
        grid = gauss_jacobi_grid(PARAMS, ORDER, "mu_full")
        rng = np.random.default_rng(9)
        f = band_limited(PARAMS, SYM_POLY, random_coefs(rng, 8), grid)
        combo = apply_operator(OperatorSpec("multiplier", multiplier=nu), f, 8)
        direct = (2.0 * apply_operator(OperatorSpec("semigroup", t=0.5), f, 8).values
                  - 3.0 * apply_operator(OperatorSpec("semigroup", t=2.0), f, 8).values)
        assert np.allclose(combo.values, direct, rtol=1e-12, atol=1e-15)

    def test_laplace_profile_matches_closed_form(self):
        # profile e^{-ct} gives m(z) = z/(z+c)
        c = 0.7
        tg = TGrid(1e-6, 60.0)
        lap = OperatorSpec("multiplier", multiplier=("laplace", lambda t: np.exp(-c * t)),
                           tgrid=tg)
        exact = OperatorSpec("multiplier",
                             multiplier=lambda z: z / (z + c))
        grid = gauss_jacobi_grid(PARAMS, ORDER, "mu_full")
        rng = np.random.default_rng(1)
        f = band_limited(PARAMS, SYM_POLY, random_coefs(rng, 10), grid)
        a = apply_operator(lap, f, 10)
        b = apply_operator(exact, f, 10)
        assert np.allclose(a.values, b.values, rtol=0, atol=1e-4 * np.max(np.abs(b.values)))

    def test_identity_multiplier(self):
        grid = gauss_jacobi_grid(PARAMS, ORDER, "mu_full")
        rng = np.random.default_rng(2)
        f = band_limited(PARAMS, SYM_POLY, random_coefs(rng, 10), grid)
        out = apply_operator(OperatorSpec("multiplier",
                                          multiplier=lambda z: np.ones_like(z)), f, 10)
        assert np.allclose(out.values, f.values, rtol=1e-10, atol=1e-12)


class TestMaximal:
    @pytest.mark.parametrize("params,n", [(PARAMS, 4), (CHEB, 0), (CHEB, 3)])
    def test_element_sup_is_t_zero_limit(self, params, n):
        grid = gauss_jacobi_grid(params, ORDER, "mu_full")
        f = grid_function(grid, eval_basis(BasisElement(params, n, SYM_POLY),
                                           grid.nodes))
        out = apply_operator(OperatorSpec("maximal"), f, max(n, 2))
        assert np.allclose(out.values, np.abs(f.values), rtol=1e-10, atol=1e-12)

    def test_dominates_semigroup(self):
        grid = gauss_jacobi_grid(PARAMS, ORDER, "mu_full")
        rng = np.random.default_rng(13)
        f = band_limited(PARAMS, SYM_POLY, random_coefs(rng, 10), grid)
        out = apply_operator(OperatorSpec("maximal"), f, 10)
        for t in (0.01, 0.3, 2.0, 15.0):
            semi = apply_operator(OperatorSpec("semigroup", t=t), f, 10)
            assert np.all(out.values + 1e-12 >= np.abs(semi.values))

    @pytest.mark.parametrize("tgrid", [None, TGrid(1e-3, 10.0)])
    @pytest.mark.parametrize("seed", [3, 17, 31])
    def test_never_below_the_grid_maximum(self, tgrid, seed):
        # the sup over t reads the trajectory with the p = inf t-norm, whose
        # interpolated peak is never below the largest sample
        grid = gauss_jacobi_grid(PARAMS, ORDER, "mu_full")
        f = band_limited(PARAMS, SYM_POLY, random_coefs(np.random.default_rng(seed), 16), grid)
        spec = OperatorSpec("maximal", tgrid=tgrid)
        E, F, z, V = spectral_table(spec, grid, (PARAMS, SYM_POLY, np.arange(17)))
        coefs = (f.values * E) @ grid.weights
        field = np.exp(-np.outer(spec.time_grid().nodes, z)) @ ((coefs * F)[:, None] * V)
        out = apply_operator(spec, f, 16)
        assert np.all(out.values >= np.max(np.abs(field), axis=0))


class TestSquare:
    @pytest.mark.parametrize("params", [PARAMS, LEGENDRE])
    @pytest.mark.parametrize("M", [1, 2])
    @pytest.mark.parametrize("n", [3, 8])
    def test_time_only_closed_form(self, params, M, n):
        # ||t^M d_t^M e^{-t sqrt(lam)}||_{L^2(dt/t)} is independent of the
        # eigenvalue: Gamma(2M)/4^M survives
        grid = gauss_jacobi_grid(params, ORDER, "mu_full")
        f = grid_function(grid, eval_basis(BasisElement(params, n, SYM_POLY),
                                           grid.nodes))
        out = apply_operator(OperatorSpec("square", M=M), f, n + 1)
        want = math.sqrt(gamma(2.0 * M) / 4.0 ** M) * np.abs(f.values)
        assert np.allclose(out.values, want, rtol=1e-4, atol=1e-8)

    def test_constant_has_zero_square_function(self):
        grid = gauss_jacobi_grid(CHEB, ORDER, "mu_full")
        f = grid_function(grid, eval_basis(BasisElement(CHEB, 0, SYM_POLY),
                                           grid.nodes))
        out = apply_operator(OperatorSpec("square", M=1), f, 4)
        assert np.allclose(out.values, 0.0, atol=1e-12)

    @pytest.mark.parametrize("N", [1, 2])
    def test_restricted_interlaced_closed_form(self, N):
        n = 4
        grid = gauss_jacobi_grid(PARAMS, ORDER, "mu_plus")
        elem = BasisElement(PARAMS, 2 * n, SYM_POLY)
        f = grid_function(grid, eval_basis(elem, grid.nodes))
        out = apply_restricted(OperatorSpec("square_interlaced", N=N), f, 8, "even")
        lam = eigenvalue(PARAMS, n)
        r = math.sqrt(lam - PARAMS.lam0)
        img = BasisElement(PARAMS, 2 * n - (N % 2), SYM_POLY)
        want = (0.5 * r ** N * math.sqrt(gamma(2.0 * N)) / (2.0 * math.sqrt(lam)) ** N
                * np.abs(eval_basis(img, grid.nodes)))
        assert np.allclose(out.values, want, rtol=1e-4, atol=1e-8)


class TestRestrictedKernelRoute:
    @pytest.mark.parametrize("component", ["even", "odd"])
    def test_spectral_vs_kernel(self, component):
        grid = gauss_jacobi_grid(PARAMS, ORDER, "mu_plus")
        rng = np.random.default_rng(17)
        offset = 0 if component == "even" else 1
        coefs = rng.standard_normal(6)
        vals = np.zeros(grid.nodes.shape)
        for k, c in enumerate(coefs):
            vals += c * eval_basis(BasisElement(PARAMS, 2 * k + offset, SYM_POLY),
                                   grid.nodes)
        f = GridFunction(grid, vals)
        t = 0.9
        spectral = apply_restricted(OperatorSpec("semigroup", t=t), f, 8, component)
        K = poisson_kernel(PARAMS, component).eval_matrix(grid.nodes, grid.nodes, t)
        quad = K @ (grid.weights * f.values)
        assert np.allclose(quad, spectral.values, rtol=1e-8, atol=1e-11)


class TestRestrictedMatrix:
    @pytest.mark.parametrize("component", ["even", "odd"])
    @pytest.mark.parametrize("N", [1, 2])
    def test_matrix_is_the_operator(self, component, N):
        # the dense discretization behind the lp sweeps and the operator
        # itself read the same chain and row arrays
        grid = gauss_jacobi_grid(PARAMS, 40, "mu_plus")
        f = np.exp(-grid.nodes) * np.sin(3.0 * grid.nodes)
        T = _restricted_matrix(PARAMS, grid, N, 16, component)
        want = apply_restricted(OperatorSpec("riesz_interlaced", N=N),
                                GridFunction(grid, f), 16, component).values
        assert np.allclose(T @ f, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


class TestNonsym:
    def test_semigroup_matches_weighted_kernel(self):
        # the function-setting kernel is psi(theta) psi(phi) times twice the
        # even half-line component
        grid = gauss_jacobi_grid(PARAMS, ORDER, "theta_plus")
        rng = np.random.default_rng(19)
        f = band_limited(PARAMS, JACOBI_FN, random_coefs(rng, 8), grid)
        t = 0.7
        spectral = nonsym_apply(OperatorSpec("semigroup", t=t), f, 8)
        K = poisson_kernel(PARAMS, "even").eval_matrix(grid.nodes, grid.nodes, t)
        w = psi(PARAMS, grid.nodes)
        quad = (w[:, None] * 2.0 * K * w[None, :]) @ (grid.weights * f.values)
        assert np.allclose(quad, spectral.values, rtol=1e-8, atol=1e-11)

    def test_plain_and_interlaced_riesz_agree_at_order_one(self):
        grid = gauss_jacobi_grid(PARAMS, ORDER, "theta_plus")
        rng = np.random.default_rng(23)
        f = band_limited(PARAMS, JACOBI_FN, random_coefs(rng, 8), grid)
        a = nonsym_apply(OperatorSpec("riesz", N=1), f, 8)
        b = nonsym_apply(OperatorSpec("riesz_interlaced", N=1), f, 8)
        assert np.allclose(a.values, b.values, rtol=1e-12, atol=1e-14)

    def test_interlaced_order_two_is_multiplier(self):
        grid = gauss_jacobi_grid(PARAMS, ORDER, "theta_plus")
        n = 5
        f = grid_function(grid, eval_basis(BasisElement(PARAMS, n, JACOBI_FN),
                                           grid.nodes))
        out = nonsym_apply(OperatorSpec("riesz_interlaced", N=2), f, 8)
        lam = eigenvalue(PARAMS, n)
        want = (lam - PARAMS.lam0) / lam * f.values
        assert np.allclose(out.values, want, rtol=1e-9, atol=1e-12)

    def test_plain_riesz_shifts_parameters(self):
        grid = gauss_jacobi_grid(PARAMS, ORDER, "theta_plus")
        n = 5
        elem = BasisElement(PARAMS, n, JACOBI_FN)
        f = grid_function(grid, eval_basis(elem, grid.nodes))
        out = nonsym_apply(OperatorSpec("riesz", N=2), f, 8)
        c1, mid = checked_step("D", elem)
        c2, img = checked_step("D", mid)
        lam = eigenvalue(PARAMS, n)
        want = lam ** -1.0 * c1 * c2 * eval_basis(img, grid.nodes)
        assert img.params.alpha == PARAMS.alpha + 2.0
        assert np.allclose(out.values, want, rtol=1e-9, atol=1e-12)

    def test_square_closed_form(self):
        grid = gauss_jacobi_grid(PARAMS, ORDER, "theta_plus")
        n = 6
        f = grid_function(grid, eval_basis(BasisElement(PARAMS, n, JACOBI_FN),
                                           grid.nodes))
        out = nonsym_apply(OperatorSpec("square", M=1), f, 8)
        want = math.sqrt(gamma(2.0) / 4.0) * np.abs(f.values)
        assert np.allclose(out.values, want, rtol=1e-4, atol=1e-8)

    def test_interlaced_square_element(self):
        grid = gauss_jacobi_grid(PARAMS, ORDER, "theta_plus")
        n = 6
        elem = BasisElement(PARAMS, n, JACOBI_FN)
        f = grid_function(grid, eval_basis(elem, grid.nodes))
        N = 1
        out = nonsym_apply(OperatorSpec("square_interlaced", N=N), f, 8)
        (coef,), params, (m,) = ladder_images(N, PARAMS, JACOBI_FN, [n], True)
        lam = eigenvalue(PARAMS, n)
        want = (abs(coef) * math.sqrt(gamma(2.0 * N)) / (2.0 * math.sqrt(lam)) ** N
                * np.abs(eval_basis(BasisElement(params, int(m), JACOBI_FN), grid.nodes)))
        assert np.allclose(out.values, want, rtol=1e-4, atol=1e-8)

    def test_maximal_element(self):
        grid = gauss_jacobi_grid(PARAMS, ORDER, "theta_plus")
        n = 3
        f = grid_function(grid, eval_basis(BasisElement(PARAMS, n, JACOBI_FN),
                                           grid.nodes))
        out = nonsym_apply(OperatorSpec("maximal"), f, 6)
        assert np.allclose(out.values, np.abs(f.values), rtol=1e-10, atol=1e-12)


class TestTransference:
    @pytest.mark.parametrize("spec", [OperatorSpec("semigroup", t=0.8),
                                      OperatorSpec("riesz", N=2),
                                      OperatorSpec("square", M=1)])
    def test_conjugation_matches_direct(self, spec):
        tgrid = gauss_jacobi_grid(PARAMS, ORDER, "theta_full")
        mgrid = gauss_jacobi_grid(PARAMS, ORDER, "mu_full")
        rng = np.random.default_rng(29)
        f = band_limited(PARAMS, SYM_FN, random_coefs(rng, 10), tgrid)
        via_conj = transfer_function_setting(spec, f, 10, mgrid)
        direct = apply_operator(spec, f, 10)
        assert np.allclose(via_conj.values, direct.values, rtol=1e-9, atol=1e-11)


class TestDefaultTimeGrid:
    def test_built_once_and_shared(self):
        first = OperatorSpec("maximal").time_grid()
        again = OperatorSpec("square", M=1).time_grid()
        assert first is again
        assert np.array_equal(first.nodes, TGrid().nodes)

    def test_explicit_grid_wins(self):
        grid = TGrid(1e-3, 10.0)
        assert OperatorSpec("maximal", tgrid=grid).time_grid() is grid


class TestValidation:
    def test_spec_rejects_bad_input(self):
        with pytest.raises(ValueError):
            OperatorSpec("frobnicate")
        with pytest.raises(ValueError):
            OperatorSpec("semigroup")
        with pytest.raises(ValueError):
            OperatorSpec("riesz", N=0)
        with pytest.raises(ValueError):
            OperatorSpec("multiplier")
        with pytest.raises(ValueError):
            OperatorSpec("square")

    @pytest.mark.parametrize("kind,given", [
        ("semigroup", dict(t=0.5, N=2)), ("maximal", dict(N=2)),
        ("riesz", dict(N=1, M=3)), ("riesz", dict(N=1, t=0.7)),
        ("riesz", dict(N=1, tgrid=TGrid(1e-4, 10.0))),
        ("semigroup", dict(t=0.5, multiplier=DiscreteMeasure((0.3,), (1.0,)))),
        ("semigroup", dict(t=0.5, tgrid=TGrid())), ("maximal", dict(t=0.0)),
        ("multiplier", dict(multiplier=lambda z: z, M=1)),
        ("square", dict(M=1, t=0.2)),
        ("riesz_interlaced", dict(N=1, multiplier=lambda z: z))])
    def test_spec_rejects_a_field_its_kind_does_not_read(self, kind, given):
        with pytest.raises(ValueError, match=f"{kind} reads no"):
            OperatorSpec(kind, **given)

    def test_only_a_laplace_multiplier_reads_a_time_grid(self):
        for multiplier in (DiscreteMeasure((0.5,), (1.0,)), lambda z: z):
            with pytest.raises(ValueError, match="laplace"):
                OperatorSpec("multiplier", multiplier=multiplier, tgrid=TGrid())
        tgrid = TGrid(1e-3, 10.0)
        laplace = OperatorSpec("multiplier", multiplier=("laplace", np.exp), tgrid=tgrid)
        assert laplace.time_grid() is tgrid

    def test_grid_functions_compare_by_identity(self):
        grid = gauss_jacobi_grid(PARAMS, 8, "mu_full")
        f = grid_function(grid, np.cos)
        assert grid == grid and grid != gauss_jacobi_grid(PARAMS, 8, "mu_full")
        assert f == f and f != grid_function(grid, np.cos)
        assert len({grid, f}) == 2

    def test_grid_function_shape(self):
        grid = gauss_jacobi_grid(PARAMS, 8, "mu_full")
        with pytest.raises(ValueError):
            GridFunction(grid, np.zeros(3))

    def test_setting_grid_mismatch(self):
        plus = gauss_jacobi_grid(PARAMS, 8, "mu_plus")
        full = gauss_jacobi_grid(PARAMS, 8, "mu_full")
        f_plus = grid_function(plus, np.ones(plus.nodes.size))
        f_full = grid_function(full, np.ones(full.nodes.size))
        with pytest.raises(ValueError):
            apply_operator(OperatorSpec("semigroup", t=1.0), f_plus, 4)
        with pytest.raises(ValueError):
            apply_restricted(OperatorSpec("semigroup", t=1.0), f_full, 4, "even")
        with pytest.raises(ValueError):
            nonsym_apply(OperatorSpec("semigroup", t=1.0), f_full, 4)
        with pytest.raises(ValueError):
            expand_restricted(f_full, 4, "even")
        with pytest.raises(ValueError):
            expand_restricted(f_plus, 4, "sideways")

    # one accepted and one rejected kind per entry point, by the grid it needs
    @pytest.mark.parametrize("tag,spec,accepted", [
        ("mu_full", OperatorSpec("riesz", N=1), True),
        ("mu_full", OperatorSpec("riesz_interlaced", N=1), False),
        ("theta_full", OperatorSpec("square_interlaced", M=1), False),
        ("mu_plus", OperatorSpec("square_interlaced", M=1, N=1), True),
        ("mu_plus", OperatorSpec("square", M=1), False),
        ("mu_plus", OperatorSpec("riesz", N=1), False),
        ("theta_plus", OperatorSpec("riesz_interlaced", N=2), True),
        ("theta_plus", OperatorSpec("square", N=1), True),
    ])
    def test_each_setting_accepts_its_kinds(self, tag, spec, accepted):
        grid = gauss_jacobi_grid(PARAMS, 12, tag)
        f = grid_function(grid, np.cos(grid.nodes))
        if tag in ("mu_full", "theta_full"):
            call = lambda: apply_operator(spec, f, 4)
        elif tag == "mu_plus":
            call = lambda: apply_restricted(spec, f, 4, "even")
        else:
            call = lambda: nonsym_apply(spec, f, 4)
        if accepted:
            assert np.all(np.isfinite(call().values))
        else:
            with pytest.raises(ValueError, match="is not a"):
                call()

    def test_transference_needs_shared_nodes(self):
        tgrid = gauss_jacobi_grid(PARAMS, 8, "theta_full")
        other = gauss_jacobi_grid(PARAMS, 10, "mu_full")
        f = grid_function(tgrid, np.ones(tgrid.nodes.size))
        with pytest.raises(ValueError):
            transfer_function_setting(OperatorSpec("semigroup", t=1.0), f, 4, other)

    def test_bad_multiplier_object(self):
        grid = gauss_jacobi_grid(PARAMS, 8, "mu_full")
        f = grid_function(grid, np.ones(grid.nodes.size))
        with pytest.raises(ValueError):
            apply_operator(OperatorSpec("multiplier", multiplier=("mystery", 1)),
                           f, 4)


# --- the index-array core against a per-element reference --------------------

# every kind the entry points accept, the multiplier in all three forms
CORE_SPECS = [
    OperatorSpec("semigroup", t=0.3),
    OperatorSpec("riesz", N=1), OperatorSpec("riesz", N=2), OperatorSpec("riesz", N=3),
    OperatorSpec("riesz_interlaced", N=1), OperatorSpec("riesz_interlaced", N=2),
    OperatorSpec("riesz_interlaced", N=3),
    OperatorSpec("multiplier", multiplier=DiscreteMeasure((0.1, 0.4), (0.7, 0.6))),
    OperatorSpec("multiplier", multiplier=lambda z: z / (z + 0.7)),
    OperatorSpec("multiplier", tgrid=TGrid(1e-4, 40.0),
                 multiplier=("laplace", lambda t: np.exp(-0.7 * t))),
    OperatorSpec("maximal"),
    OperatorSpec("square", M=1), OperatorSpec("square", N=1), OperatorSpec("square", M=1, N=2),
    OperatorSpec("square_interlaced", M=1, N=1), OperatorSpec("square_interlaced", N=2),
]
# setting -> (grid tag, family kind, source indices at band limit B), as the
# entry points pass them
CORE_SETTINGS = {
    "sym_poly": ("mu_full", SYM_POLY, lambda B: np.arange(B + 1)),
    "sym_fn": ("theta_full", SYM_FN, lambda B: np.arange(B + 1)),
    "restricted-even": ("mu_plus", SYM_POLY, lambda B: 2 * np.arange(B + 1)),
    "restricted-odd": ("mu_plus", SYM_POLY, lambda B: 2 * np.arange(B + 1) + 1),
    "nonsym": ("theta_plus", JACOBI_FN, lambda B: np.arange(B + 1)),
}
CORE_CASES = [(setting, spec) for setting in CORE_SETTINGS for spec in CORE_SPECS
              if spec.kind in SETTINGS[setting.split("-")[0]]]


T_CHECK = np.linspace(0.2, 2.8, 9)


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.max(np.abs(want)))


@functools.lru_cache(maxsize=None)
def checked_step(op, elem):
    """One first-order step on one element, (factor, image) or (0.0, None)
    when the image vanishes, checked against the operator it stands for
    through pointwise derivatives, so the reference does not rest on the
    closed forms it is compared with. delta (on even indices) and delta*
    (on odd ones) are interlaced chains of order 1, DD, DD_bar and D plain
    ones; D* has no chain of its own and is spelled out here."""
    p, t = elem.params, T_CHECK
    if op == "D_star":
        # D*_{a,b} phi_n^{a+1,b+1} = -r_{n+1} phi_{n+1}^{a,b}, r at (a, b)
        base = JacobiParams(p.alpha - 1.0, p.beta - 1.0)
        m = elem.index + 1.0
        c = -math.sqrt(m * (m + base.alpha + base.beta + 1.0))
        img = BasisElement(base, elem.index + 1, JACOBI_FN)
        # D D* phi_m = (lambda_{m+1} - lambda_0) phi_m at the lower parameters
        c_back, back = checked_step("D", img)
        assert back == elem
        assert c * c_back == pytest.approx(eigenvalue(img.params, img.index)
                                           - img.params.lam0, rel=1e-12)
        return c, img
    interlaced = op in ("delta", "delta_star")
    if interlaced:
        assert (op == "delta_star") == (elem.index % 2 == 1)
    (c,), params, (m,) = ladder_images(1, p, elem.kind, [elem.index], interlaced)
    c, img = float(c), BasisElement(params, int(m), elem.kind) if c else None
    if elem.kind == SYM_FN:
        # DD_bar is DD conjugated by psi: the same factor and image index
        c_poly, img_poly = checked_step("DD", BasisElement(p, elem.index, SYM_POLY))
        assert c == c_poly and (img and img.index) == (img_poly and img_poly.index)
        return c, img
    f = eval_basis(elem, t)
    if op == "D":  # D phi_n = psi (d/dtheta) P_n
        lhs = psi(p, t) * basis_matrix(p, TRIG_POLY, [elem.index], t, 1)[0]
    elif op == "delta_star":
        lhs = -basis_matrix(p, elem.kind, [elem.index], t, 1)[0] - coeff_A(p, t) * f
    else:  # DD f = f' + A f_odd; delta is DD on the even elements
        lhs = (basis_matrix(p, elem.kind, [elem.index], t, 1)[0]
               + (coeff_A(p, t) * f if elem.index % 2 else 0.0))
    if img is None:
        assert c == 0.0 and np.allclose(lhs, 0.0, atol=1e-9)
    else:
        _close(c * eval_basis(img, t), lhs)
    return c, img


def reference_chain(spec, elem):
    """(factor, image) of the chain of spec on one element, by checked ladder
    steps; (0.0, None) when the image vanishes."""
    N = spec.N
    if N == 0 or spec.kind not in ("riesz", "square", "riesz_interlaced",
                                   "square_interlaced"):
        return 1.0, elem
    if spec.kind.endswith("_interlaced") and elem.kind == SYM_POLY:
        # delta_N^even = ...delta* delta, delta_N^odd = ...delta delta*; every
        # step has the same factor, and the chain is its N-th power
        ops = ("delta", "delta_star") if elem.index % 2 == 0 else ("delta_star", "delta")
    elif spec.kind.endswith("_interlaced"):
        ops = ("D", "D_star")
    else:
        ops = ({SYM_POLY: "DD", SYM_FN: "DD_bar", JACOBI_FN: "D"}[elem.kind],) * 2
    coef, first, img = 1.0, None, elem
    for i in range(N):
        c, img = checked_step(ops[i % 2], img)
        if img is None:
            return 0.0, None
        coef *= c
        first = c if first is None else first
    if spec.kind.endswith("_interlaced") and elem.kind == SYM_POLY:
        return first ** N, img
    return coef, img


def reference_table(spec, grid, elems):
    """(E, F, z, V, live) of spectral_table, element by element from
    eval_basis, eigenvalue and checked_step; V rows of vanishing images are 0."""
    chain, images = zip(*(reference_chain(spec, e) for e in elems))
    lam = [eigenvalue(e.params, e.eigen_index) for e in elems]
    z = np.sqrt(np.array(lam))
    m = spec.multiplier
    if spec.kind == "semigroup":
        F = np.exp(-spec.t * z)
    elif isinstance(m, DiscreteMeasure):
        F = sum(w * np.exp(-t * z) for t, w in zip(m.times, m.weights))
    elif callable(m):
        F = m(z)
    elif spec.kind == "multiplier":
        tg = spec.time_grid()
        F = np.array([tg.integrate(zk * np.exp(-tg.nodes * zk) * m[1](tg.nodes), 1.0)
                      for zk in z])
    elif spec.kind.startswith("riesz"):
        F = np.array([lk ** (-spec.N / 2.0) * c if c else 0.0 for c, lk in zip(chain, lam)])
    else:
        F = np.array(chain) * (-z) ** (0 if spec.kind == "maximal" else spec.M)
    E = np.array([eval_basis(e, grid.nodes) for e in elems])
    V = np.array([eval_basis(img, grid.nodes) if img else 0.0 * grid.nodes
                  for img in images])
    return E, F, z, V, np.array([img is not None for img in images])


def assert_table_is_reference(got, want):
    E, F, z, V = got
    E0, F0, z0, V0, live = want
    assert np.array_equal(E, E0)
    assert np.array_equal(z, z0)
    assert np.array_equal(F, F0)
    assert np.array_equal(V[live], V0[live])
    assert np.all(F[~live] == 0.0)


def count_table_builds(monkeypatch) -> list:
    """The parameters of every basis._theta_table build from here on."""
    builds, theta_table = [], basis._theta_table

    def counted(params, theta, tables):
        builds.append(params)
        return theta_table(params, theta, tables)

    monkeypatch.setattr(basis, "_theta_table", counted)
    return builds


class TestIndexArrayCore:
    @pytest.mark.parametrize("params", [LEGENDRE, PARAMS], ids=["0,0", "1.5,-0.7"])
    @pytest.mark.parametrize("setting,spec", CORE_CASES,
                             ids=[f"{s}-{sp.kind}-M{sp.M}N{sp.N}-{i}"
                                  for i, (s, sp) in enumerate(CORE_CASES)])
    def test_spectral_table_equals_reference(self, setting, spec, params):
        tag, kind, indices = CORE_SETTINGS[setting]
        grid = gauss_jacobi_grid(params, 20, tag)
        for B in (0, 1, 16):
            n = indices(B)
            elems = [BasisElement(params, int(k), kind) for k in n]
            want = reference_table(spec, grid, elems)
            if setting.startswith("restricted"):
                family = restricted_family(params, B, setting.split("-")[1])
                assert np.array_equal(family[2], n)
            else:
                family = (params, kind, n)
            assert_table_is_reference(spectral_table(spec, grid, family), want)

    @pytest.mark.parametrize("setting", CORE_SETTINGS)
    def test_every_kind_of_a_setting_builds_the_grids_rows_once(self, monkeypatch, setting):
        builds = count_table_builds(monkeypatch)
        tag, _, _ = CORE_SETTINGS[setting]
        f = grid_function(gauss_jacobi_grid(PARAMS, 20, tag), np.cos)
        if setting.startswith("restricted"):
            component = setting.split("-")[1]
            expand_restricted(f, 8, component)
            act = functools.partial(apply_restricted, f=f, nmax=8, component=component)
        else:
            expand(f, 8)
            act = functools.partial(nonsym_apply if setting == "nonsym" else apply_operator,
                                    f=f, nmax=8)
        specs = [spec for spec in CORE_SPECS if spec.kind in SETTINGS[setting.split("-")[0]]]
        for spec in specs:
            act(spec)
        # only the plain chains on (0,pi) build tables, at their image parameters
        assert builds.count(PARAMS) == 1
        assert {p.alpha - PARAMS.alpha for p in builds} <= {0.0, 1.0, 2.0, 3.0}

    @pytest.mark.parametrize("spec", [OperatorSpec("riesz", N=2),
                                      OperatorSpec("square_interlaced", M=1, N=1),
                                      OperatorSpec("semigroup", t=0.3)],
                             ids=["riesz", "square_interlaced", "semigroup"])
    @pytest.mark.parametrize("kind,tag", [(JACOBI_FN, "theta_plus"), (SYM_POLY, "mu_plus")])
    def test_unsorted_repeated_indices_keep_their_order(self, spec, kind, tag):
        grid = gauss_jacobi_grid(PARAMS, 20, tag)
        n = np.array([3, 0, 5, 3, 1, 0])
        elems = [BasisElement(PARAMS, int(k), kind) for k in n]
        assert_table_is_reference(spectral_table(spec, grid, (PARAMS, kind, n)),
                                  reference_table(spec, grid, elems))

    @pytest.mark.parametrize("kind", [TRIG_POLY, JACOBI_FN, SYM_POLY, SYM_FN])
    def test_synthesize_family(self, kind):
        theta = np.linspace(0.1, 3.0, 11)
        n = np.array([3, 0, 7, 3, 5, 0])
        coefs = np.array([0.5, -1.25, 0.0, 0.75, 2.0, -0.5])
        want = coefs @ np.array([eval_basis(BasisElement(PARAMS, int(k), kind), theta)
                                 for k in n])
        assert np.array_equal(synthesize(coefs, (PARAMS, kind, n), theta), want)
        assert np.array_equal(synthesize(np.zeros(0), (PARAMS, kind, []), theta), np.zeros(11))

    # at (0.1, 0.3) shifting the parameters up and back by 1 does not round-trip
    @pytest.mark.parametrize("params", [PARAMS, JacobiParams(0.1, 0.3)],
                             ids=["1.5,-0.7", "0.1,0.3"])
    @pytest.mark.parametrize("setting,spec", CORE_CASES,
                             ids=[f"{s}-{sp.kind}-M{sp.M}N{sp.N}-{i}"
                                  for i, (s, sp) in enumerate(CORE_CASES)])
    def test_table_builds_only_where_the_chain_shifts(self, monkeypatch, setting, spec,
                                                       params):
        tag, kind, indices = CORE_SETTINGS[setting]
        grid = gauss_jacobi_grid(params, 20, tag)
        grid.rows  # a grid that already holds its rows
        builds = count_table_builds(monkeypatch)
        spectral_table(spec, grid, (params, kind, indices(4)))
        # on (0,pi) a plain chain of order N lands at parameters shifted by N,
        # an interlaced one (D*D)^k or D(D*D)^k at a shift of N mod 2
        shift = 0
        if setting == "nonsym":
            shift = spec.N % 2 if spec.kind.endswith("_interlaced") else spec.N
        assert builds == ([params.shifted(shift)] if shift else [])
