import math
from math import pi

import numpy as np
import pytest

from xxzchain import dressed
from xxzchain.dressed import (
    ModelParams,
    h_critical,
    solve_dressed_energy,
    solve_dressed_set,
)
from xxzchain.errors import (
    PoleProximityError,
    SolverError,
    ValidationError,
)

# closed-form benchmark: zeta = pi/2, J = 1, h = 2
FF_Q = 0.5 * math.log(2 + math.sqrt(3))


@pytest.fixture(scope="module")
def ff():
    with pytest.warns(UserWarning):
        params = ModelParams(J=1.0, zeta=pi / 2, h=2.0)
    return solve_dressed_set(params)


@pytest.fixture(scope="module")
def sets():
    out = {}
    for zeta_frac, q in [(0.5365, 0.2), (0.9065, 0.8), (0.1065, 0.2)]:
        params = ModelParams(J=1.0, zeta=zeta_frac * pi, q=q)
        out[(zeta_frac, q)] = solve_dressed_set(params)
    return out


class TestFreeFermion:
    def test_fermi_endpoint(self, ff):
        assert abs(ff.q - FF_Q) < 1e-9

    def test_dressed_energy_closed_form(self, ff):
        lam = np.linspace(-FF_Q, FF_Q, 21)
        expected = 2 - 4 / np.cosh(2 * lam)
        got = np.array([ff.eps_r(x, 1) for x in lam])
        assert np.max(np.abs(got - expected)) < 1e-9

    def test_momentum_derivative_closed_form(self, ff):
        lam = np.linspace(-2, 2, 17)
        expected = 2 / np.cosh(2 * lam)
        got = np.array([ff.p_r_d(x, 1) for x in lam])
        assert np.max(np.abs(got - expected)) < 1e-9

    def test_momentum_closed_form(self, ff):
        for x in [-1.5, -0.4, 0.0, 0.7, 2.0]:
            assert abs(ff.p_r(x, 1) - math.atan(math.sinh(2 * x))) < 1e-9

    def test_fermi_momentum(self, ff):
        assert abs(ff.p_F - pi / 3) < 1e-10

    def test_charge_is_unity(self, ff):
        assert np.max(np.abs(ff.Z.values - 1.0)) < 1e-12
        assert abs(ff.Z(0.123) - 1.0) < 1e-12

    def test_magnetization_third(self, ff):
        assert abs(ff.magnetization_density() - 1 / 3) < 1e-10

    def test_two_string_energy_constant(self, ff):
        # K_2 vanishes identically at zeta = pi/2, so eps_2 = 2h
        for x in [0.0, 0.9, -1.4]:
            assert abs(ff.eps_r(x, 2) - 4.0) < 1e-12
        assert abs(ff.p_r_d(0.5, 2)) < 1e-14

    def test_second_derivative_closed_form(self, ff):
        # p''_1 = -4 sinh(2x)/cosh^2(2x)
        x = 0.6
        expected = -4 * math.sinh(2 * x) / math.cosh(2 * x) ** 2
        assert abs(ff.p_r_d(x, 1, 2) - expected) < 1e-8


class TestSymmetries:
    def test_eps_even_p_odd(self, sets):
        ds = sets[(0.5365, 0.2)]
        for x in [0.05, 0.13, 0.19]:
            assert abs(ds.eps_r(x, 1) - ds.eps_r(-x, 1)) < 1e-10
            assert abs(ds.p_r(x, 1) + ds.p_r(-x, 1)) < 1e-10
        for x in [0.3, 1.1]:
            assert abs(ds.eps_r(x, 2) - ds.eps_r(-x, 2)) < 1e-10

    def test_eps1_sign_pattern(self, sets):
        for ds in sets.values():
            assert ds.eps_r(0.0, 1) < 0
            assert abs(ds.eps_r(ds.q, 1)) < 1e-8 * max(ds.h, 1.0)
            assert ds.eps_r(ds.q + 2.0, 1) > 0

    def test_derivative_vs_finite_difference(self, sets):
        ds = sets[(0.5365, 0.2)]
        h = 1e-5
        for r, x in [(1, 0.11), (2, 0.6), (3, -0.8)]:
            fd = (ds.eps_r(x + h, r) - ds.eps_r(x - h, r)) / (2 * h)
            assert abs(ds.eps_r(x, r, 1) - fd) < 1e-7
            fdp = (ds.p_r(x + h, r) - ds.p_r(x - h, r)) / (2 * h)
            assert abs(ds.p_r_d(x, r) - fdp) < 1e-6


class TestDerivativeOrders:
    # 2-strings on Im lam = 0 and 3-strings on Im lam = pi/2 at this point
    KEY = (0.5365, 0.2)
    LINES = [(1, 0.0), (1, pi / 2), (2, 0.0), (3, pi / 2)]

    @pytest.mark.parametrize("r,line_im", LINES)
    def test_second_derivatives_vs_finite_difference(self, sets, r, line_im):
        # central differences of the k = 1 values with step 1e-5; the error is
        # the O(h^2) truncation, measured at most 1.6e-9 relative to
        # max(1, |f''|) over these lines and x in [-3, 3], so 1e-8 holds it
        ds = sets[self.KEY]
        h = 1e-5
        for x in np.linspace(-3, 3, 13):
            z = x + 1j * line_im
            for f in (lambda l, k: ds.eps_r(l, r, k), lambda l, k: ds.p_r_d(l, r, k)):
                fd = (f(z + h, 1) - f(z - h, 1)) / (2 * h)
                want = f(z, 2)
                assert abs(want - fd) < 1e-8 * max(1.0, abs(want)), (r, x)

    def test_r1_is_the_nystrom_interpolant_bitwise(self, sets):
        # K_1 = K(.|zeta): the r = 1 extension of the defining equation is the
        # grid function eps_1 (resp. p_1') itself, bit for bit
        ds = sets[self.KEY]
        x = np.linspace(-3, 3, 25)
        for lam in (x, x + 1j * pi / 2):
            assert np.array_equal(ds.eps_r(lam, 1), ds.eps1(lam))
            assert np.array_equal(ds.p_r_d(lam, 1), ds.p1prime(lam))

    def test_order_out_of_range(self, sets):
        ds = sets[self.KEY]
        with pytest.raises(ValidationError):
            ds.p_r_d(0.3, 1, 0)
        with pytest.raises(ValidationError):
            ds.eps_r(0.3, 2, 3)


class TestIdentities:
    @pytest.mark.parametrize("key", [(0.5365, 0.2), (0.9065, 0.8), (0.1065, 0.2)])
    def test_phase_difference_equals_charge(self, sets, key):
        ds = sets[key]
        q = ds.q
        for lam in [-0.7 * q, 0.0, 0.4 * q, q]:
            lhs = ds.phi(1, lam, q) - ds.phi(1, lam, -q) + 1.0
            rhs = ds.Z(lam)
            assert abs(lhs - rhs) < 1e-8

    @pytest.mark.parametrize("key", [(0.5365, 0.2), (0.9065, 0.8), (0.1065, 0.2)])
    def test_endpoint_phase_inverse_charge(self, sets, key):
        ds = sets[key]
        q = ds.q
        lhs = 1.0 + ds.phi(1, q, q) - ds.phi(1, -q, q)
        rhs = 1.0 / ds.Z(q)
        assert abs(lhs - rhs) < 1e-8


class TestFieldEndpointDuality:
    def test_round_trip_h_to_q(self, sets):
        for (zeta_frac, q), ds in sets.items():
            back = solve_dressed_set(ModelParams(J=1.0, zeta=zeta_frac * pi, h=ds.h))
            assert abs(back.q - q) < 1e-8

    def test_near_critical_field_small_endpoint(self):
        zeta = 0.5365 * pi
        h = 0.999 * h_critical(1.0, zeta)
        ds = solve_dressed_set(ModelParams(J=1.0, zeta=zeta, h=h))
        assert 0 < ds.q < 0.1
        assert abs(ds.h - h) < 1e-12

    def test_field_out_of_range(self):
        zeta = 0.5365 * pi
        hc = h_critical(1.0, zeta)
        with pytest.raises(ValidationError):
            ModelParams(J=1.0, zeta=zeta, h=hc * 1.01)
        with pytest.raises(ValidationError):
            ModelParams(J=1.0, zeta=zeta, h=-0.5)
        with pytest.raises(ValidationError):
            ModelParams(J=1.0, zeta=zeta)
        with pytest.raises(ValidationError):
            ModelParams(J=1.0, zeta=zeta, h=1.0, q=0.3)


class TestMagnetization:
    def test_frozen_independent_values(self, sets):
        # frozen from an independent trapezoid + Neumann-iteration solve
        expected = {
            (0.5365, 0.2): 0.11248408858998,
            (0.9065, 0.8): 0.18136455856495,
            (0.1065, 0.2): 0.41870346478511,
        }
        for key, ds in sets.items():
            assert abs(ds.magnetization_density() - expected[key]) < 5e-8

    def test_dual_route_consistency(self, sets):
        # magnetization_density raises internally if p_F/pi and the
        # density integral split by more than 1e-10
        for ds in sets.values():
            ds.magnetization_density()


class TestGuards:
    def test_pole_proximity_refused(self, sets):
        ds = sets[(0.5365, 0.2)]
        with pytest.raises(PoleProximityError):
            ds.eps_r(0.3 + 1j * ds.zeta, 1)
        with pytest.raises(PoleProximityError):
            ds.eps_r(0.3 + 1j * (2 * ds.zeta - pi), 3, 1)

    def test_ambiguous_momentum_display(self):
        # (r + sigma) zeta / 2 lands exactly on pi/2 for zeta = pi/3, r = 2
        with pytest.warns(UserWarning):
            ds = solve_dressed_set(ModelParams(J=1.0, zeta=pi / 3, q=0.3))
        with pytest.raises(ValidationError):
            ds.p_r(0.5, 2)


class TestConditionEstimate:
    def test_gecon_estimate_tracks_exact_cond(self):
        # the corners of zeta/pi in [0.05, 0.95], Q in [1e-6, 64], orders
        # 16-256, then seeded draws with Q log-uniform
        rng = np.random.default_rng(1988)
        corners = [
            (z * pi, Q, n) for z in (0.05, 0.95) for Q in (1e-6, 64.0) for n in (16, 256)
        ]
        draws = [
            (
                rng.uniform(0.05, 0.95) * pi,
                math.exp(rng.uniform(math.log(1e-6), math.log(64.0))),
                int(rng.integers(16, 257)),
            )
            for _ in range(40)
        ]
        for zeta, Q, order in corners + draws:
            disc = dressed._Discretization(zeta, Q, order)
            exact = np.linalg.cond(disc.a_mat, 1)
            assert exact / 3 <= disc.cond <= 3 * exact, (zeta, Q, order)

    def test_singular_matrix_raises(self, monkeypatch):
        # K = -1/(2Q) with sum(w) = 2Q makes (I + K W) 1 = 0
        Q = 0.7
        monkeypatch.setattr(
            dressed, "kernel_k", lambda lam, eta: np.full(np.shape(lam), -1 / (2 * Q))
        )
        with pytest.raises(SolverError, match="ill-conditioned"):
            dressed._Discretization(0.4 * pi, Q, 32)


class TestSelfConsistency:
    def test_eps2_order_doubling(self):
        zeta = 0.5365 * pi
        a = solve_dressed_set(ModelParams(J=1.0, zeta=zeta, q=0.2, order=128))
        b = solve_dressed_set(ModelParams(J=1.0, zeta=zeta, q=0.2, order=256))
        for x in [0.0, 0.45, -1.2]:
            assert abs(a.eps_r(x, 2) - b.eps_r(x, 2)) < 1e-9
        assert abs(a.p_F - b.p_F) < 1e-10

    def test_complex_extension_satisfies_equation(self, sets):
        # eps_1 extended off the segment still satisfies the defining relation
        ds = sets[(0.1065, 0.2)]
        z = 0.4 + 0.1j
        c = 4 * pi * ds.J * math.sin(ds.zeta)
        from xxzchain.kernels import kernel_k

        conv = np.sum(
            ds.quad.weights * kernel_k(z - ds.quad.nodes, ds.zeta) * ds.eps1.values
        )
        assert abs(ds.eps_r(z, 1) + conv - (ds.h - c * kernel_k(z, ds.zeta / 2))) < 1e-12


class TestWrappers:
    def test_solve_dressed_energy_free_fermion_any_q(self):
        with pytest.warns(UserWarning):
            params = ModelParams(J=1.0, zeta=pi / 2, h=2.0)
        for Q in [0.3, 1.0, 2.5]:
            gf = solve_dressed_energy(params, Q)
            expected = 2 - 4 / np.cosh(2 * gf.quad.nodes)
            assert np.max(np.abs(gf.values - expected)) < 1e-10

    def test_energy_at_origin_tiny_segment(self):
        params = ModelParams(J=1.0, zeta=0.5365 * pi, h=1.0)
        gf = solve_dressed_energy(params, 1e-6)
        assert abs(gf(0.0) - (1.0 - h_critical(1.0, 0.5365 * pi))) < 1e-5

    def test_dressed_momentum_wrapper(self, sets):
        ds = sets[(0.1065, 0.2)]
        assert abs(ds.p_r(ds.q, 1) - ds.p_F) < 1e-12


class TestSignPatterns:
    def test_eps1_positive_on_upper_line(self, sets):
        for ds in sets.values():
            for x in np.linspace(-3, 3, 11):
                val = ds.eps_r(x + 1j * pi / 2, 1)
                assert abs(complex(val).imag) < 1e-9
                assert complex(val).real > 0

    def test_eps1_positive_outside_segment(self, sets):
        for ds in sets.values():
            for x in np.linspace(ds.q + 0.1, ds.q + 5, 12):
                assert ds.eps_r(x, 1) > 0

    def test_p1prime_signs_both_lines(self, sets):
        for ds in sets.values():
            for x in np.linspace(-2, 2, 9):
                assert complex(ds.p_r_d(x, 1)).real > 0
                on_line = complex(ds.p_r_d(x + 1j * pi / 2, 1))
                assert abs(on_line.imag) < 1e-9
                assert on_line.real < 0

    def test_eps2_positive_on_carrier(self, sets):
        ds = sets[(0.5365, 0.2)]
        vals = [complex(ds.eps_r(x, 2)).real for x in np.linspace(-4, 4, 17)]
        assert min(vals) > 0

    def test_charge_even_positive(self, sets):
        for ds in sets.values():
            z = ds.Z
            assert np.max(np.abs(z.values - z.values[::-1])) < 1e-10
            assert np.min(z.values) > 0

    def test_small_q_charge_near_unity(self):
        ds = solve_dressed_set(ModelParams(J=1.0, zeta=0.5365 * pi, q=1e-4))
        assert abs(ds.Z(0.0) - 1.0) < 1e-3

    def test_near_critical_q_collapses(self):
        zeta = 0.5365 * pi
        h = h_critical(1.0, zeta) * (1 - 1e-6)
        ds = solve_dressed_set(ModelParams(J=1.0, zeta=zeta, h=h))
        assert ds.q < 1e-3

    def test_free_fermion_phase_closed_form(self, ff):
        # vanishing kernel: phi_r is the bare driving itself
        from xxzchain.kernels import string_combinatorics

        sc = string_combinatorics(2, pi / 2)
        got = ff.phi(2, 0.3, 0.1)
        from xxzchain.kernels import bare_phase

        expected = bare_phase(0.2, 2, pi / 2) / (2 * pi) + sc.m_r / 2
        assert abs(got - expected) < 1e-12


class TestPhaseCaching:
    def test_in_memory_cache_identity(self, sets):
        ds = sets[(0.1065, 0.2)]
        g1 = ds.dressed_phase(1, ds.q)
        g2 = ds.dressed_phase(1, ds.q)
        assert g1 is g2
