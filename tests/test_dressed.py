import itertools
import json
import math
from math import pi

import numpy as np
import pytest
from scipy.optimize import brentq

from oracles import phi
from xxzchain import dressed
from xxzchain.cli import run
from xxzchain.dressed import (
    ModelParams,
    h_critical,
    solve_dressed_set,
)
from xxzchain.errors import (
    BracketError,
    PoleProximityError,
    SolverError,
    ValidationError,
)
from xxzchain.kernels import bare_phase, kernel_k, kernel_kr, string_combinatorics
from xxzchain.quadrature import _FAR_GAP, _FAR_TERMS, NystromLU, gauss_legendre

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
        assert np.max(np.abs(ff.charge - 1.0)) < 1e-12
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
            lhs = phi(ds, 1, lam, q) - phi(ds, 1, lam, -q) + 1.0
            rhs = ds.Z(lam)
            assert abs(lhs - rhs) < 1e-8

    @pytest.mark.parametrize("key", [(0.5365, 0.2), (0.9065, 0.8), (0.1065, 0.2)])
    def test_endpoint_phase_inverse_charge(self, sets, key):
        ds = sets[key]
        q = ds.q
        rhs = 1.0 / ds.Z(q)
        lhs = 1.0 + phi(ds, 1, q, q) - phi(ds, 1, -q, q)
        assert abs(lhs - rhs) < 1e-8
        at_q, at_minus_q = ds.boundary_phases(1, q)
        assert abs(1.0 + at_q - at_minus_q - rhs) < 1e-8


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

    def test_pole_proximity_names_lowest_line(self, sets):
        # two points on pole lines of K(.|zeta) and one clear: the text names
        # the lowest offending Im lam, whatever the order of the points
        ds = sets[(0.5365, 0.2)]
        lam = np.array([0.3 + 1j * ds.zeta, 0.1 + 0.2j, 0.5 + 1j * (ds.zeta - pi)])
        msg = ("evaluation at Im(lam)=-1.4561281949388691 within 0.0001 "
               "of a kernel pole line")
        for pts in (lam, lam[::-1]):
            with pytest.raises(PoleProximityError) as exc:
                ds.eps_r(pts, 1)
            assert str(exc.value) == msg

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
            lu = NystromLU(lambda l, m: kernel_k(l - m, zeta), gauss_legendre(order, -Q, Q))
            exact = np.linalg.cond(lu.a_mat, 1)
            assert exact / 3 <= lu.cond <= 3 * exact, (zeta, Q, order)

    def test_singular_matrix_raises(self):
        # K = -1/(2Q) with sum(w) = 2Q makes (I + K W) 1 = 0
        Q = 0.7
        with pytest.raises(SolverError, match="ill-conditioned"):
            NystromLU(
                lambda l, m: np.full(np.broadcast(l, m).shape, -1 / (2 * Q)),
                gauss_legendre(32, -Q, Q),
            )


def _full_system_q(zeta, h, order):
    """The h-mode Fermi endpoint by brentq on the full n x n Nystrom system,
    to xtol 1e-15, so that it gives the discrete root itself."""
    c = 4 * pi * math.sin(zeta)

    def endpoint(Q):
        lu = NystromLU(lambda l, m: kernel_k(l - m, zeta), gauss_legendre(order, -Q, Q))
        eps = lu.solve(h - c * kernel_k(lu.quad.nodes, zeta / 2))
        return float(h - c * kernel_k(Q, zeta / 2) - dressed._conv(lu.quad, zeta, Q, eps))

    hi = 1.0
    while endpoint(hi) < 0:
        hi *= 2.0
    return brentq(endpoint, 1e-6, hi, xtol=1e-15)


def _trace_builds(monkeypatch):
    """A list that receives the arguments of every NystromLU build."""
    builds, build = [], NystromLU.__init__

    def traced_build(self, *args):
        builds.append(args)
        build(self, *args)

    monkeypatch.setattr(NystromLU, "__init__", traced_build)
    return builds


def _log_h(zeta, Q, order=128):
    """log(E / Z) at lam = Q, which is log H(Q) up to the constant log c."""
    _, z, e, _ = dressed._endpoint_parts(zeta, Q, order, 1.0, 1.0)
    return math.log(e / z)


class TestEvenHalfSearch:
    """The h-mode search for q solves the even half of the Nystrom system:
    the driving terms 1 and K(.|zeta/2) are even and the rule symmetric.

    It therefore checks the conditioning and residual of the even block only;
    the odd block is still checked by the final full solve at q. At order 2,
    zeta = 0.8585 pi, h = 0.038 the full-system search fails its residual
    check, and the even-half F has a pole near Q = 1.45758 and no root near
    it: the search refuses the pole, and `xxz solve` exits 3."""

    @staticmethod
    def _points():
        rng = np.random.default_rng(14)
        for order in (2, 3, 4, 7, 33, 128, 256):
            draws = [(rng.uniform(0.3, 0.8), rng.uniform(0.05, 0.95)) for _ in range(3)]
            # h near 0 (q ~ 4) and near h_c (q ~ 0.03)
            for zeta_frac, h_frac in draws + [(0.5365, 1e-3), (0.7123, 0.999)]:
                zeta = zeta_frac * pi
                yield zeta, h_frac * h_critical(1.0, zeta), order

    def test_q_matches_full_system(self):
        # measured worst over these 35 points: 7.7e-14 relative, at h = 0.999 h_c
        for zeta, h, order in self._points():
            ds = solve_dressed_set(ModelParams(J=1.0, zeta=zeta, h=h, order=order))
            ref = _full_system_q(zeta, h, order)
            assert abs(ds.q - ref) <= 1e-13 * ref, (zeta / pi, h, order)

    def test_log_h_slope_matches_centred_difference(self):
        # d log H / dQ = E'/E - Z'/Z; measured worst over these points: 1.1e-9
        d = 1e-5
        for zeta_frac, Q in itertools.product((0.3, 0.5365, 0.7123, 0.9), (0.05, 0.4, 1.0, 2.5)):
            zeta = zeta_frac * pi
            slope = dressed._endpoint_parts(zeta, Q, 128, 1.0, 1.0)[3]
            fd = (_log_h(zeta, Q + d) - _log_h(zeta, Q - d)) / (2 * d)
            assert abs(slope - fd) <= 1e-7 * abs(fd), (zeta_frac, Q)

    def test_builds_per_search(self, monkeypatch):
        # the benchmark's range at order 128; measured mean 5.2, worst 7
        builds = _trace_builds(monkeypatch)
        counts = []
        for zeta_frac, h_frac in itertools.product(
                (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9), (0.25, 0.4, 0.55, 0.7, 0.85)):
            zeta = zeta_frac * pi
            builds.clear()
            dressed.DressedSet._find_q(
                1.0, zeta, h_frac * h_critical(1.0, zeta), 128, 4 * pi * math.sin(zeta))
            counts.append(len(builds))
        assert np.mean(counts) <= 6, counts

    def test_one_build_per_distinct_q(self, monkeypatch):
        zeta = 0.6 * pi
        h = 0.4 * h_critical(1.0, zeta)
        c = 4 * pi * math.sin(zeta)
        qs = []
        endpoint_parts = dressed._endpoint_parts

        def traced_endpoint(zeta, Q, *args):
            qs.append(Q)
            return endpoint_parts(zeta, Q, *args)

        monkeypatch.setattr(dressed, "_endpoint_parts", traced_endpoint)
        builds = _trace_builds(monkeypatch)
        dressed.DressedSet._find_q(1.0, zeta, h, 128, c)
        assert len(builds) == len(qs) == len(set(qs))

    def test_singular_even_system_raises(self, monkeypatch):
        # K = -1/(2Q): the half rule's weights sum to Q, so (I + 2 K W_half) 1 = 0
        Q = 0.7
        monkeypatch.setattr(
            dressed, "kernel_k", lambda lam, eta, k=0: np.full(np.shape(lam), -1 / (2 * Q))
        )
        for order in (32, 33):
            with pytest.raises(SolverError, match="ill-conditioned"):
                dressed._endpoint_parts(0.4 * pi, Q, order, 1.0, 1.0)

    def test_search_passes_where_full_system_residual_fails(self, capsys):
        zeta, h = 0.8585 * pi, 0.038
        with pytest.raises(SolverError, match="residual"):
            _full_system_q(zeta, h, 2)
        c = 4 * pi * math.sin(zeta)
        with pytest.raises(BracketError, match="a pole, not a root"):
            dressed.DressedSet._find_q(1.0, zeta, h, 2, c)
        assert run(["solve", "--zeta", "0.8585pi", "--h", "0.038", "--order", "2"]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "bracket-failure"


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
        conv = np.sum(
            ds.quad.weights * kernel_k(z - ds.quad.nodes, ds.zeta) * ds.eps1
        )
        assert abs(ds.eps_r(z, 1) + conv - (ds.h - c * kernel_k(z, ds.zeta / 2))) < 1e-12


class TestWrappers:
    def test_free_fermion_eps1_nodes_any_q(self):
        # K vanishes at zeta = pi/2: eps_1 = h - 4/cosh 2x with eps_1(q) = 0
        for q in [0.3, 1.0, 2.5]:
            with pytest.warns(UserWarning):
                ds = solve_dressed_set(ModelParams(J=1.0, zeta=pi / 2, q=q))
            expected = 4 / math.cosh(2 * q) - 4 / np.cosh(2 * ds.quad.nodes)
            assert np.max(np.abs(ds.eps1 - expected)) < 1e-10

    def test_energy_at_origin_tiny_segment(self):
        # on a vanishing segment eps_1 is its driving term h - c K(.|zeta/2),
        # with c K(0|zeta/2) = h_c; h ~ 3.5 here, so 1e-14 is a few ulps of h
        zeta = 0.5365 * pi
        ds = solve_dressed_set(ModelParams(J=1.0, zeta=zeta, q=1e-6))
        assert abs(ds.eps_r(0.0) - (ds.h - h_critical(1.0, zeta))) < 1e-14

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
            z = ds.charge
            assert np.max(np.abs(z - z[::-1])) < 1e-10
            assert np.min(z) > 0

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
        sc = string_combinatorics(2, pi / 2)
        got = phi(ff, 2, 0.3, 0.1)
        expected = bare_phase(0.2, 2, pi / 2) / (2 * pi) + sc.m_r / 2
        assert abs(got - expected) < 1e-12


def _reference_kernel(z, eta, k):
    """K^(k)(z|eta) from s2 / (pi (cosh 2z - cos 2eta)), in complex arithmetic."""
    z = np.asarray(z, dtype=complex)
    s2, d = math.sin(2 * eta), np.cosh(2 * z) - math.cos(2 * eta)
    if k == 0:
        return s2 / (math.pi * d)
    if k == 1:
        return -2 * s2 * np.sinh(2 * z) / (math.pi * d**2)
    return s2 * (8 * np.sinh(2 * z) ** 2 / d - 4 * np.cosh(2 * z)) / (math.pi * d**2)


class TestCarrierLineReduction:
    # one zeta from each band of the `asymptotics` benchmark workload
    ZETAS = [0.3817 * pi, 0.5713 * pi, 0.7937 * pi]
    LINES = [0.0, pi / 2, -pi / 2]

    @pytest.fixture(scope="class")
    def band_sets(self):
        return {z: solve_dressed_set(ModelParams(J=1.0, zeta=z, q=0.45, order=32))
                for z in self.ZETAS}

    @pytest.mark.parametrize("zeta", ZETAS)
    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_matches_complex_reference(self, band_sets, zeta, r, k):
        ds = band_sets[zeta]
        x, w = ds.quad.nodes, ds.quad.weights
        t = np.linspace(-4.0, 4.0, 41)
        for line in self.LINES:
            lam = t + 1j * line
            diff = lam[:, None] - x
            terms = sum(_reference_kernel(diff, e, k) for e in
                        (zeta * (r + 1) / 2, zeta * (r - 1) / 2)) * (w * ds.eps1)
            want = terms.sum(axis=1)
            got = dressed._conv(ds.quad, zeta, lam, ds.eps1, r, k)
            assert got.dtype == np.float64
            # relative to the scale of the summands: the sum may pass through 0
            err = np.abs(got - want) / np.abs(terms).sum(axis=1)
            assert np.max(err) < 1e-13, (line, np.max(err))
            assert np.max(np.abs(want.imag)) < 1e-13 * np.max(np.abs(terms))

    @pytest.mark.parametrize("line", LINES)
    def test_shape_follows_lam(self, band_sets, line):
        ds = band_sets[self.ZETAS[0]]
        for lam, shape in [(0.7 + 1j * line, ()),
                           (np.array([0.7 + 1j * line]), (1,)),
                           (np.linspace(-2, 2, 5) + 1j * line, (5,))]:
            got = dressed._conv(ds.quad, ds.zeta, lam, ds.p1prime, 2, 1)
            assert got.shape == shape
            assert np.shape(ds.Z(lam)) == shape
            assert np.shape(ds.eps_r(lam, 2, 1)) == shape

    def test_off_line_is_the_direct_complex_sum(self, band_sets):
        # Im lam = 0.3, or points on two different lines in one call
        ds = band_sets[self.ZETAS[1]]
        for lam in [np.linspace(-3, 3, 7) + 0.3j,
                    np.array([0.4, 0.9 + 1j * pi / 2]),
                    np.array([0.4 + 1j * pi / 2, 0.9 - 1j * pi / 2, 1.3 + 0.2j])]:
            for r, k in [(1, 0), (2, 1), (3, 2)]:
                direct = (kernel_kr(lam.reshape(-1, 1) - ds.quad.nodes, r, ds.zeta, k)
                          @ (ds.quad.weights * ds.eps1))
                got = dressed._conv(ds.quad, ds.zeta, lam, ds.eps1, r, k)
                assert np.iscomplexobj(got)
                assert np.array_equal(got, direct)

    def test_pole_guard_on_the_reduced_line(self):
        # K(.|zeta) has its poles 1e-13 from the lines Im lam = +-pi/2
        with pytest.warns(UserWarning):
            ds = solve_dressed_set(ModelParams(J=1.0, zeta=pi / 2 - 1e-13, q=0.5))
        node = ds.quad.nodes[5]
        for line in (pi / 2, -pi / 2):
            with pytest.raises(PoleProximityError, match="kernel_k sampled"):
                ds.Z(node + 1j * line)
            with pytest.raises(PoleProximityError, match="kernel pole line"):
                ds.eps_r(0.3 + 1j * line)


class TestMomentumEnergyPairs:
    """`DressedSet.p_eps_d` equals separate `p_r_d` and `eps_r` calls bit for bit."""

    @staticmethod
    def _assert_pair(ds, lam, r, k):
        got = ds.p_eps_d(lam, r, k)
        assert isinstance(got, tuple) and len(got) == 2
        for g, want in zip(got, (ds.p_r_d(lam, r, k), ds.eps_r(lam, r, k))):
            assert type(g) is type(want) and np.array_equal(g, want), (lam, r, k)

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_half_scan_grid_on_both_lines(self, sets, r, k):
        ds = sets[(0.5365, 0.2)]
        half = np.linspace(-15.0, 15.0, 2000)[1000:]
        far = dressed._far_rows(half, *ds.quad.interval)
        assert far.any() and not far.all()  # far-field and dense rows both taken
        for line in (0.0, pi / 2):
            self._assert_pair(ds, half + 1j * line, r, k)

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_scalar_and_off_line(self, sets, r, k):
        ds = sets[(0.5365, 0.2)]
        for lam in (0.7, 0.7 + 1j * pi / 2, 0.7 + 0.3j, np.linspace(-3, 3, 7) + 0.3j):
            self._assert_pair(ds, lam, r, k)

    def test_order_out_of_range(self, sets):
        with pytest.raises(ValidationError):
            sets[(0.5365, 0.2)].p_eps_d(0.3, 1, 0)


def _assert_dense_or_far_field(t, got, want, q, scale):
    """Rows of `_conv` within _FAR_GAP of [-q, q], complex t, and every row of
    a call with fewer far rows than _FAR_TERMS equal the one-matrix product
    bit for bit; the far-field rows agree with it within 1e-14 of `scale`,
    the largest |value| of the whole curve."""
    far = np.isrealobj(t) & (np.abs(t) >= q + _FAR_GAP)
    if np.count_nonzero(far) < _FAR_TERMS:
        far[:] = False
    assert np.array_equal(got[~far], want[~far])
    assert np.max(np.abs(got - want)) <= 1e-14 * scale


class TestConvBlocks:
    """`_conv` in row blocks equals the one-matrix product bit for bit, apart
    from the far-field rows (see TestFarField)."""

    ZETA = 0.5713 * pi
    SIZES = [1, 2, 255, 256, 257, 258, 513, 2000, 4001]
    # line: (Im lam, eta shift of the reference kernel, whether t = Re lam)
    LINES = {"real": (0.0, 0.0, True), "up": (pi / 2, pi / 2, True),
             "down": (-pi / 2, pi / 2, True), "off": (0.3, 0.0, False)}

    @pytest.mark.parametrize("order", [32, 33, 128])
    @pytest.mark.parametrize("line", sorted(LINES))
    def test_equals_one_matrix_product(self, order, line):
        im, shift, reduced = self.LINES[line]
        quad = gauss_legendre(order, -0.45, 0.45)
        rng = np.random.default_rng(order)
        real_vals = rng.uniform(-1, 1, order)
        values = [real_vals, real_vals + 1j * rng.uniform(-1, 1, order)]
        # every size is a prefix of one lam, so one kernel matrix serves all
        lam = np.linspace(-4.0, 4.0, max(self.SIZES)) + 1j * im
        t = lam.real if reduced else lam
        for r, k in itertools.product([1, 2, 3], [0, 1, 2]):
            kmat = kernel_kr(t.reshape(-1, 1) - quad.nodes, r, self.ZETA, k, shift)
            for vals, n in itertools.product(values, self.SIZES):
                want = kmat[:n] @ (quad.weights * vals)
                got = dressed._conv(quad, self.ZETA, lam[:n], vals, r, k)
                assert got.shape == want.shape and got.dtype == want.dtype
                scale = np.max(np.abs(kmat @ (quad.weights * vals)))
                _assert_dense_or_far_field(t[:n], got, want, 0.45, scale)

    def test_real_dtype_lam(self):
        quad = gauss_legendre(32, -0.45, 0.45)
        vals = np.random.default_rng(3).uniform(-1, 1, 32)
        for n in self.SIZES:
            lam = np.linspace(-4.0, 4.0, n)
            want = kernel_kr(lam.reshape(-1, 1) - quad.nodes, 2, self.ZETA, 1) @ (
                quad.weights * vals)
            got = dressed._conv(quad, self.ZETA, lam, vals, 2, 1)
            assert got.dtype == np.float64
            _assert_dense_or_far_field(lam, got, want, 0.45, np.max(np.abs(want)))

    def test_pole_in_last_block_raises(self):
        # K(.|zeta) has a pole at i zeta; the node lies in the last of 4001 rows
        quad = gauss_legendre(32, -0.45, 0.45)
        lam = np.linspace(-4.0, 4.0, 4001) + 1j * self.ZETA
        lam[-1] = quad.nodes[3] + 1j * self.ZETA
        with pytest.raises(PoleProximityError, match="kernel_k sampled"):
            dressed._conv(quad, self.ZETA, lam, np.ones(32))


def _mp_kernel(mpmath, z, eta, k):
    """K^(k)(z|eta) in mpmath arithmetic at the working precision."""
    s2, d = mpmath.sin(2 * eta), mpmath.cosh(2 * z) - mpmath.cos(2 * eta)
    if k == 0:
        return s2 / (mpmath.pi * d)
    if k == 1:
        return -2 * s2 * mpmath.sinh(2 * z) / (mpmath.pi * d**2)
    return s2 * (8 * mpmath.sinh(2 * z) ** 2 / d - 4 * mpmath.cosh(2 * z)) / (mpmath.pi * d**2)


class TestFarField:
    """Real t at least _FAR_GAP outside [-q, q] take the Chebyshev-U series
    of K once a call has _FAR_TERMS of them."""

    # line: (Im lam, eta shift of the reference kernel)
    LINES = {"real": (0.0, 0.0), "up": (pi / 2, pi / 2), "down": (-pi / 2, pi / 2)}
    # (zeta / pi, q): one zeta from each band of the `asymptotics` workload
    POINTS = [(0.3817, 0.05), (0.5713, 0.45), (0.7937, 1.0), (0.5713, 2.0)]

    @pytest.mark.parametrize("order", [32, 128])
    @pytest.mark.parametrize("point", POINTS)
    @pytest.mark.parametrize("line", sorted(LINES))
    def test_matches_dense_product(self, order, point, line):
        zeta, q = point[0] * pi, point[1]
        im, shift = self.LINES[line]
        quad = gauss_legendre(order, -q, q)
        rng = np.random.default_rng(order)
        real_vals = rng.uniform(-1, 1, order)
        t = np.linspace(-8.0, 8.0, 1601)
        for r, k in itertools.product([1, 2, 3], [0, 1, 2]):
            kmat = kernel_kr(t.reshape(-1, 1) - quad.nodes, r, zeta, k, shift)
            for vals in (real_vals, real_vals + 1j * rng.uniform(-1, 1, order)):
                want = kmat @ (quad.weights * vals)
                got = dressed._conv(quad, zeta, t + 1j * im, vals, r, k)
                assert got.dtype == want.dtype
                _assert_dense_or_far_field(t, got, want, q, np.max(np.abs(want)))

    def test_series_from_far_terms_rows(self, monkeypatch):
        quad = gauss_legendre(32, -0.45, 0.45)
        sizes = []
        series = dressed._far_field

        def counted(quad, zeta, t, *args):
            sizes.append(t.size)
            return series(quad, zeta, t, *args)

        monkeypatch.setattr(dressed, "_far_field", counted)
        for n in (_FAR_TERMS - 1, _FAR_TERMS):
            t = np.concatenate([np.linspace(-0.3, 0.3, 8), 1.45 + 0.1 * np.arange(n)])
            dressed._conv(quad, 0.5713 * pi, t, np.ones(32), 2, 1)
        assert sizes == [_FAR_TERMS]

    @pytest.mark.parametrize("zeta_frac, q, order", [(0.5365, 0.2, 32), (0.9065, 0.8, 128)])
    def test_matches_mpmath_sum(self, zeta_frac, q, order):
        # the node values of eps_1 and p_1' of a solved set, summed in
        # 40-digit arithmetic at rows on both sides of the segment, all of
        # them in the series: at the gap q + _FAR_GAP and up to 5 beyond it
        mpmath = pytest.importorskip("mpmath")
        ds = solve_dressed_set(ModelParams(J=1.0, zeta=zeta_frac * pi, q=q, order=order))
        x, w = ds.quad.nodes, ds.quad.weights
        far = q + _FAR_GAP + 0.25 * np.arange(_FAR_TERMS)
        t = np.concatenate([-far[::-1], far])
        picks = [0, _FAR_TERMS - 2, _FAR_TERMS - 1, _FAR_TERMS, _FAR_TERMS + 6]
        scan = np.linspace(-15.0, 15.0, 2000)
        for (im, shift), vals, r, k in itertools.product(
                [(0.0, 0.0), (pi / 2, pi / 2)], [ds.eps1, ds.p1prime], [1, 2, 3], [0, 1, 2]):
            scale = np.max(np.abs(
                kernel_kr(scan.reshape(-1, 1) - x, r, ds.zeta, k, shift) @ (w * vals)))
            got = dressed._conv(ds.quad, ds.zeta, t + 1j * im, vals, r, k)
            etas = [ds.zeta * (r + 1) / 2 + shift] + [ds.zeta * (r - 1) / 2 + shift] * (r > 1)
            for i in picks:
                with mpmath.workdps(40):
                    exact = mpmath.fsum(
                        mpmath.mpf(wj) * mpmath.mpf(vj) * _mp_kernel(
                            mpmath, mpmath.mpf(t[i]) - mpmath.mpf(xj), mpmath.mpf(eta), k)
                        for wj, vj, xj in zip(w, vals, x) for eta in etas)
                    err = abs(float(got[i] - exact))
                assert err <= 2e-15 * scale, (im, r, k, t[i])


class TestBoundaryPhases:
    """`boundary_phases`, the adjoint route, against the node route of
    `oracles.phi` at the Fermi boundaries."""

    # omega on Im 0 and on Im pi/2, at +-q and inside and outside the
    # segment, and off both lines
    OMEGAS = [-1.3, -0.05, 0.3, 2.1, 1.0 + 0.5j * pi, -0.4 - 0.5j * pi,
              0.7 + 0.3j, -2.0 - 0.9j, 0.2 + 1.1j]

    @pytest.mark.parametrize("order", [32, 128])
    @pytest.mark.parametrize("zeta_frac, q", [(0.4204, 0.45), (0.8633, 1.2)])
    def test_adjoint_matches_node_route(self, order, zeta_frac, q):
        ds = solve_dressed_set(ModelParams(J=1.0, zeta=zeta_frac * pi, q=q, order=order))
        for r, omega in itertools.product([1, 2, 3], self.OMEGAS + [ds.q, -ds.q]):
            got = ds.boundary_phases(r, omega)
            for val, end in zip(got, (ds.q, -ds.q)):
                want = complex(phi(ds, r, end, omega))
                assert abs(val - want) <= 1e-14 * max(1.0, abs(want)), (r, omega, end)

    def test_free_fermion_driving_term(self, ff):
        # K = 0 at zeta = pi/2: phi_r(+-q, mu) is its driving term
        for r, mu in itertools.product([1, 2], [0.1, -0.7, 0.3 + 0.4j]):
            m_r = string_combinatorics(r, pi / 2).m_r
            got = ff.boundary_phases(r, mu)
            for val, end in zip(got, (ff.q, -ff.q)):
                want = bare_phase(complex(end - mu), r, pi / 2) / (2 * pi) + m_r / 2
                assert abs(val - want) < 1e-15, (r, mu, end)

    def test_one_transposed_solve_on_first_use(self, monkeypatch):
        transposed = []
        solve = NystromLU.solve

        def spy(self, g, transpose=False):
            transposed.append(transpose)
            return solve(self, g, transpose)

        monkeypatch.setattr(NystromLU, "solve", spy)
        ds = solve_dressed_set(ModelParams(J=1.0, zeta=0.4204 * pi, q=0.45, order=32))
        assert not any(transposed)
        for r, mu in [(1, ds.q), (1, -ds.q), (2, 0.3), (3, 0.2 + 0.5j * pi)]:
            ds.boundary_phases(r, mu)
        assert transposed.count(True) == 1
