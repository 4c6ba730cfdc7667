import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_legendre

from xxzchain.errors import BracketError, SolverError, ValidationError
from xxzchain.quadrature import (
    NystromLU,
    Polyline,
    _legendre_rule,
    barnes_g,
    find_root_bracketed,
    gauss_legendre,
    integrate_polyline,
)


def solve_fredholm2(kernel, driving, Q, order):
    """Nystrom solution of f + int_{-Q}^{Q} K(., y) f(y) dy = g on a `NystromLU`."""
    lu = NystromLU(kernel, gauss_legendre(order, -Q, Q), "kernel")
    g = np.asarray(driving(lu.quad.nodes), dtype=lu.a_mat.dtype)
    return lu.grid_function(lu.solve(g), driving, "driving")


class TestGaussLegendre:
    def test_two_point_rule(self):
        q = gauss_legendre(2, -1, 1)
        assert np.allclose(q.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)])
        assert np.allclose(q.weights, [1.0, 1.0])

    def test_degree_exactness(self):
        q = gauss_legendre(2, -1, 1)
        assert abs(q.integrate(lambda x: x**2) - 2 / 3) < 1e-14

    def test_self_convergence_cosh(self):
        # single-panel GL convergence for 1/cosh(2x) on [-5,5] is limited by
        # the pole at i pi/4; order 64 is already at ~1e-8, order 128 converged
        f = lambda x: 1 / np.cosh(2 * x)
        a = gauss_legendre(64, -5, 5).integrate(f)
        b = gauss_legendre(128, -5, 5).integrate(f)
        assert abs(a - b) < 1e-7
        c = gauss_legendre(256, -5, 5).integrate(f)
        assert abs(b - c) < 1e-12

    def test_weight_sum(self):
        q = gauss_legendre(33, -0.7, 2.3)
        assert abs(q.weights.sum() - 3.0) < 1e-12 * 3.0

    def test_invalid_args(self):
        with pytest.raises(ValidationError):
            gauss_legendre(1, -1, 1)
        with pytest.raises(ValidationError):
            gauss_legendre(4, 1, 1)

    def test_cached_rule_gives_fresh_mapped_arrays(self):
        x, w = roots_legendre(128)
        rules = [gauss_legendre(128, a, b) for a, b in ((-1.0, 2.0), (0.5, 7.0))]
        assert not np.shares_memory(rules[0].nodes, rules[1].nodes)
        for q in rules:
            a, b = q.interval
            half = 0.5 * (b - a)
            assert np.array_equal(q.nodes, 0.5 * (a + b) + half * x)
            assert np.array_equal(q.weights, half * w)
            assert q.nodes.flags.writeable

    def test_cached_rule_read_only(self):
        x, w = _legendre_rule(128)
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @given(st.integers(min_value=2, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_polynomial_exactness_property(self, order):
        # degree 2*order-1 monomial integrates exactly
        q = gauss_legendre(order, 0.0, 1.0)
        deg = 2 * order - 1
        val = q.integrate(lambda x: x**deg)
        assert abs(val - 1.0 / (deg + 1)) < 1e-12


class TestFredholm:
    def test_zero_kernel(self):
        g = lambda x: np.cos(x)
        f = solve_fredholm2(lambda x, y: np.zeros(np.broadcast(x, y).shape), g, 1.0, 16)
        assert np.allclose(f.values, g(f.quad.nodes), atol=1e-14)

    def test_constant_kernel_closed_form(self):
        c = 0.37
        f = solve_fredholm2(
            lambda x, y: np.full(np.broadcast(x, y).shape, c),
            lambda x: np.ones_like(x),
            1.0,
            32,
        )
        assert np.allclose(f.values, 1.0 / (1 + 2 * c), atol=1e-12)

    def test_separable_kernel_oracle(self):
        # K(x,y) = x*y on [-Q,Q]; u(y) = y^2 + y gives
        # g(x) = u(x) + x * int y(y^2+y) dy = u(x) + x * 2Q^3/3
        Q = 1.3
        u = lambda x: x**2 + x
        g = lambda x: u(x) + x * (2 * Q**3 / 3)
        f = solve_fredholm2(lambda x, y: x * y + np.zeros_like(y), g, Q, 64)
        assert np.allclose(f.values, u(f.quad.nodes), atol=1e-11)

    def test_offgrid_matches_nodes(self):
        c = 0.2
        f = solve_fredholm2(
            lambda x, y: c * np.cos(x - y),
            lambda x: np.exp(-(x**2)),
            1.0,
            48,
        )
        k = 11
        node = f.quad.nodes[k]
        assert abs(f(node) - f.values[k]) < 1e-12 * max(1.0, abs(f.values[k]))

    def test_complex_offgrid_extension(self):
        # entire kernel: extension is the analytic continuation
        c = 0.2
        f = solve_fredholm2(
            lambda x, y: c * np.cos(x - y),
            lambda x: np.cos(x),
            1.0,
            48,
        )
        z = 0.3 + 0.2j
        # residual of the defining equation at the complex point
        quad = f.quad
        integral = np.sum(quad.weights * c * np.cos(z - quad.nodes) * f.values)
        assert abs(f(z) + integral - np.cos(z)) < 1e-12

    @pytest.mark.parametrize("n", [16, 128])
    def test_non_finite_driving_is_solver_error(self, n):
        lu = NystromLU(lambda x, y: 0.3 * np.cos(x - y), gauss_legendre(n, -1.0, 1.0), "cos")
        for g in (np.full(n, np.nan), np.full(n, np.inf)):
            with pytest.raises(SolverError):
                lu.solve(g)

    def test_singular_matrix_reported(self):
        # kernel -delta-like rank-one construction making I + KW singular
        with pytest.raises(SolverError):
            solve_fredholm2(
                lambda x, y: -0.5 * np.ones(np.broadcast(x, y).shape),
                lambda x: np.ones_like(x),
                1.0,
                16,
            )


class TestRootBracketed:
    def test_linear(self):
        assert abs(find_root_bracketed(lambda x: x - 1, 0, 2) - 1) < 1e-12

    def test_cosh_closed_form(self):
        r = find_root_bracketed(lambda x: math.cosh(2 * x) - 2, 0, 1)
        assert abs(r - 0.5 * math.log(2 + math.sqrt(3))) < 1e-12

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root_bracketed(lambda x: x**2 + 1e-3, -1, 1)


class TestBarnesG:
    def test_small_values(self):
        assert barnes_g(1) == 1.0
        assert barnes_g(2) == 1.0
        assert barnes_g(3) == 1.0
        assert barnes_g(4) == 2.0
        assert barnes_g(5) == 12.0
        assert barnes_g(6) == 288.0

    def test_recurrence_up_to_20(self):
        for n in range(1, 20):
            lhs = barnes_g(n + 1)
            rhs = math.gamma(n) * barnes_g(n)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_invalid(self):
        with pytest.raises(ValidationError):
            barnes_g(0)


class TestPolyline:
    def test_constant(self):
        path = Polyline.of([0, 1 + 1j])
        val = integrate_polyline(lambda z: np.ones_like(z), path)
        assert abs(val - (1 + 1j)) < 1e-14

    def test_linear(self):
        path = Polyline.of([0, 2])
        assert abs(integrate_polyline(lambda z: z, path) - 2) < 1e-14

    def test_residue_unit_circle(self):
        pts = [np.exp(2j * np.pi * k / 64) for k in range(65)]
        path = Polyline.of(pts)
        val = integrate_polyline(lambda z: 1 / z, path, order_per_segment=16)
        assert abs(val - 2j * np.pi) < 1e-8

    def test_reversal_antisymmetry(self):
        path = Polyline.of([0.1, 1 + 0.5j, 2 - 1j])
        f = lambda z: np.exp(z) * np.cos(z)
        a = integrate_polyline(f, path)
        b = integrate_polyline(f, path.reversed())
        assert abs(a + b) < 1e-14

    def test_validation(self):
        with pytest.raises(ValidationError):
            Polyline.of([1.0])
        with pytest.raises(ValidationError):
            Polyline.of([1.0, 1.0])
