import json
import math
from math import pi
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import Polyline, integrate_polyline
from xxzchain.errors import ContourError, PoleProximityError, ValidationError
from xxzchain.kernels import (
    PHASE_POLE_DIST,
    POLE_ERROR_DIST,
    KernelParams,
    _near_pole,
    _pole_distance,
    bare_phase,
    bare_phase_1,
    kernel_k,
    kernel_kr,
    string_combinatorics,
    w_hat,
)

RNG = np.random.default_rng(20240817)

# theta(lam|eta) from a 40-digit mpmath path integral, written by
# tests/data/make_bare_phase_reference.py
REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "bare_phase_reference.json").read_text()
)


def _reference(kind):
    return [(complex(*r["lam"]), r["eta"], complex(*r["theta"]))
            for r in REFERENCE if r["kind"] == kind]


class TestKernelK:
    def test_value_at_origin(self):
        assert abs(kernel_k(0.0, pi / 4) - 1 / pi) < 1e-14

    def test_vanishes_at_eta_half_pi(self):
        assert kernel_k(0.0, pi / 2) == 0.0
        assert kernel_k(1.3 + 0.2j, pi / 2) == 0.0

    def test_periodicity_and_evenness_random(self):
        lam = RNG.uniform(-3, 3, 100) + 1j * RNG.uniform(-1.2, 1.2, 100)
        eta = 0.4
        a = kernel_k(lam, eta)
        assert np.max(np.abs(kernel_k(lam + 1j * pi, eta) - a)) < 1e-13
        assert np.max(np.abs(kernel_k(-lam, eta) - a)) < 1e-13

    def test_real_on_real_line(self):
        vals = kernel_k(np.linspace(-4, 4, 41), 0.8)
        assert np.all(np.isreal(vals))

    def test_pole_proximity_error(self):
        with pytest.raises(PoleProximityError):
            kernel_k(1j * 0.4 + 1e-14, 0.4)

    def test_derivatives_match_finite_differences(self):
        eta = 0.9
        h = 1e-5
        for lam in [0.3, 0.8 + 0.3j, -1.1 + 0.5j]:
            fd1 = (kernel_k(lam + h, eta) - kernel_k(lam - h, eta)) / (2 * h)
            assert abs(kernel_k(lam, eta, 1) - fd1) < 1e-8
            fd2 = (
                kernel_k(lam + h, eta) - 2 * kernel_k(lam, eta) + kernel_k(lam - h, eta)
            ) / h**2
            assert abs(kernel_k(lam, eta, 2) - fd2) < 1e-6


class TestRealPoleGuard:
    # sin(2 eta) ~ 6e-13 passes the zero test, yet the pole lattice comes
    # within pi - eta_hat ~ 3e-13 < POLE_ERROR_DIST of the real axis
    ETA = pi * (1 - 1e-13)

    ORDERS = pytest.mark.parametrize(
        "k", [0, 1, 2], ids=["kernel_k", "kernel_k_d1", "kernel_k_d2"]
    )

    @ORDERS
    def test_raises_at_real_zero(self, k):
        assert abs(math.sin(2 * self.ETA)) > 1e-15
        assert pi - w_hat(self.ETA) < 1e-12
        with pytest.raises(PoleProximityError):
            kernel_k(0.0, self.ETA, k)
        with pytest.raises(PoleProximityError):
            kernel_k(np.array([-0.5, 0.0, 0.7]), self.ETA, k)

    @ORDERS
    def test_no_raise_away_from_zero(self, k):
        vals = kernel_k(np.array([-0.5, -0.1, 0.1, 0.7]), self.ETA, k)
        assert np.all(np.isfinite(vals))

    def test_real_distance_matches_complex_path(self):
        rng = np.random.default_rng(31)
        etas = [1e-9, 1e-3, pi / 2 - 1e-9, pi / 2, pi / 2 + 1e-9, pi - 1e-3, pi - 1e-9]
        for eta in etas:
            ehat = w_hat(eta)
            x = rng.uniform(-3, 3, 64)
            for lam in (x, x[:, None] - x[None, :], rng.uniform(0.2, 2.0, (5, 7)), 0.4):
                want = np.min(_pole_distance(np.asarray(lam, dtype=complex), ehat))
                got = np.min(_pole_distance(lam, ehat))
                assert abs(got - want) <= 1e-15, (eta, got, want)


class TestNearPole:
    # 1e-13 and pi - 1e-13 put eta_hat within both tols of the real axis
    ETAS = [1e-13, 1e-9, 1e-3, 0.9, pi / 2 - 1e-9, pi / 2, pi / 2 + 1e-9, pi - 1e-3,
            pi - 1e-9, pi - 1e-13]
    NAN, INF = float("nan"), float("inf")
    NON_FINITE = [complex(NAN, 0), complex(0, NAN), complex(INF, 0),
                  complex(0, INF), complex(INF, NAN), complex(NAN, INF)]

    @staticmethod
    def _cases(rng, ehat, tol):
        """Carrier-line matrices x_i - x_j + i b, some with planted entries."""
        x = np.sort(rng.uniform(-0.8, 0.8, 32))
        for b in (0.0, 0.3, ehat, -ehat, pi - ehat, ehat + 2.7):
            yield x[:, None] - x[None, :] + 1j * b
        base = rng.uniform(-3, 3, (40, 32)) + 1j * rng.uniform(-2, 2, (40, 32))
        for k in (0, 1, -1):
            pole = 1j * (ehat + pi * k)
            for off in (tol / 2, 2 * tol, 1j * tol / 2, -2j * tol):
                lam = base.copy()
                lam[7, 11] = pole + off
                yield lam
                for bad in TestNearPole.NON_FINITE:
                    with_bad = lam.copy()
                    with_bad[3, 5] = bad
                    yield with_bad
        # real matrices: near 0 or away from it, with and without non-finite entries
        real = rng.uniform(0.1, 3, (40, 32)) * rng.choice([-1.0, 1.0], (40, 32))
        for near in (None, tol / 4, -tol / 4):
            lam = real.copy()
            if near is not None:
                lam[7, 11] = near
            yield lam
            for bad in (TestNearPole.NAN, TestNearPole.INF, -TestNearPole.INF):
                with_bad = lam.copy()
                with_bad[3, 5] = bad
                yield with_bad
        yield np.full((4, 4), TestNearPole.INF)
        yield complex(0.0, ehat) + tol / 2
        yield np.array(1j * ehat + 2 * tol)
        yield rng.uniform(-3, 3, 64)
        yield 0.4

    @pytest.mark.parametrize("tol", [POLE_ERROR_DIST, PHASE_POLE_DIST])
    def test_matches_min_distance(self, tol):
        rng = np.random.default_rng(47)
        seen = set()
        with np.errstate(invalid="ignore"):
            for eta in self.ETAS:
                ehat = w_hat(eta)
                for lam in self._cases(rng, ehat, tol):
                    want = bool(np.min(_pole_distance(lam, ehat)) < tol)
                    assert _near_pole(lam, ehat, tol) == want, (eta, lam)
                    seen.add(want)
        assert seen == {True, False}


class TestKernelKr:
    def test_r1_reduces_to_single_kernel(self):
        lam = 0.7 + 0.1j
        zeta = 0.4 * pi
        assert abs(kernel_kr(lam, 1, zeta) - kernel_k(lam, zeta)) < 1e-15

    def test_r2_at_free_fermion_point(self):
        # K(0|3pi/4) + K(0|pi/4) = -1/pi + 1/pi = 0
        assert abs(kernel_kr(0.0, 2, pi / 2)) < 1e-14

    def test_evenness(self):
        lam = 0.7
        val = kernel_kr(lam, 3, 0.3 * pi)
        assert abs(kernel_kr(-lam, 3, 0.3 * pi) - val) < 1e-14

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_derivative_orders_sum_the_summands(self, k):
        lam = np.array([0.7 + 0.1j, -0.3, 1.2 + 0.4j])
        zeta = 0.3 * pi
        for r in (1, 2, 3):
            want = kernel_k(lam, zeta * (r + 1) / 2, k) + kernel_k(lam, zeta * (r - 1) / 2, k)
            assert np.array_equal(kernel_kr(lam, r, zeta, k), want)

    def test_order_out_of_range(self):
        for k in (-1, 3):
            with pytest.raises(ValidationError):
                kernel_k(0.3, 0.4, k)


class TestOrderRuns:
    """A tuple of orders gives the single-order values bit for bit."""

    T = np.linspace(-3.0, 3.0, 41)
    LAMS = {
        "real": T,
        "complex": T + 0.3j,
        "half-period": T + 1j * pi / 2,
        "scalar": 0.7,
        "complex-scalar": 0.7 + 0.2j,
    }
    ORDER_RUNS = pytest.mark.parametrize("orders", [(0,), (0, 1), (1, 2), (0, 1, 2)])

    @staticmethod
    def _assert_runs(got, single, orders):
        assert isinstance(got, tuple) and len(got) == len(orders)
        for g, k in zip(got, orders):
            want = single(k)
            assert type(g) is type(want) and np.array_equal(g, want), k

    @ORDER_RUNS
    @pytest.mark.parametrize("kind", sorted(LAMS))
    def test_kernel_k(self, kind, orders):
        lam = self.LAMS[kind]
        for eta in (0.4, 0.3 * pi, 0.3 * pi + pi / 2, pi / 2):  # pi/2: sin 2 eta = 0
            self._assert_runs(kernel_k(lam, eta, orders), lambda k: kernel_k(lam, eta, k), orders)

    @ORDER_RUNS
    @pytest.mark.parametrize("kind", sorted(LAMS))
    def test_kernel_kr(self, kind, orders):
        lam = self.LAMS[kind]
        for r, zeta in ((1, 0.3 * pi), (2, 0.3 * pi), (3, 0.3 * pi), (2, pi / 2)):
            for shift in (0.0, pi / 2):
                self._assert_runs(kernel_kr(lam, r, zeta, orders, shift),
                                  lambda k: kernel_kr(lam, r, zeta, k, shift), orders)

    def test_pole_guard_and_orders(self):
        eta = pi - 1e-13  # poles 1e-13 from the real zero, as in TestRealPoleGuard
        for lam in (0.0, np.array([-0.5, 0.0, 0.7])):
            with pytest.raises(PoleProximityError):
                kernel_k(lam, eta, (0, 1))
        for orders in ((), (0, 3), (-1, 0)):
            with pytest.raises(ValidationError):
                kernel_k(0.3, 0.4, orders)


class TestBarePhase:
    def test_zero_at_origin(self):
        for eta in [0.3, pi / 3, 2.1]:
            assert bare_phase_1(0.0, eta) == 0.0

    @pytest.mark.parametrize("eta", [pi / 6, pi / 4, pi / 3])
    def test_closed_form_on_real_line(self, eta):
        lam = np.linspace(-5, 5, 41)
        expected = 2 * np.arctan(np.tanh(lam) / math.tan(eta))
        got = np.array([bare_phase_1(x, eta) for x in lam])
        assert np.max(np.abs(got - expected)) < 1e-9

    def test_limit_at_infinity(self):
        # theta_1(lam|eta) -> pi - 2 eta for eta in (0, pi/2)
        val = bare_phase_1(20.0, pi / 3)
        assert abs(val - pi / 3) < 1e-8

    def test_contour_route_matches_closed_form_for_real_argument(self):
        # force the two-segment integrator through a tiny imaginary part
        eta = pi / 3
        for x in [0.5, 1.5, -2.2]:
            via_contour = bare_phase_1(x + 1e-13j, eta)
            assert abs(via_contour - bare_phase_1(x, eta)) < 1e-9

    def test_rectangle_oracle_pole_enclosed(self):
        # Path independence up to the residue of the left-avoided pole:
        # going [0 -> x -> x+i pi/2] encloses no pole, while the canonical
        # [0 -> i pi/2 -> x + i pi/2] passes the pole at i eta on its left,
        # so the two routes differ by -2 pi (residue -i of 2 pi K).
        eta = pi / 3
        x = 1.2
        lam = x + 1j * pi / 2
        f = lambda z: 2 * pi * kernel_k(z, eta)
        alt = integrate_polyline(f, Polyline.of([0, x, lam]), order_per_segment=96)
        canonical = bare_phase_1(lam, eta)
        assert abs(canonical - (alt - 2 * pi)) < 1e-8

    def test_rectangle_oracle_opposite_parity_pole(self):
        # eta = 0.7 pi: the enclosed pole is the periodic copy at i(pi - 0.7pi)
        # of the lower pole family, whose residue has the opposite sign, so the
        # canonical route exceeds the pole-free rectangle route by +2 pi.
        eta = 0.7 * pi
        x = 1.2
        lam = x + 1j * pi / 2
        f = lambda z: 2 * pi * kernel_k(z, eta)
        alt = integrate_polyline(f, Polyline.of([0, x, lam]), order_per_segment=96)
        canonical = bare_phase_1(lam, eta)
        assert abs(canonical - (alt + 2 * pi)) < 1e-8

    def test_matches_mpmath_reference(self):
        # near pole lines and poles, |Im lam| up to 8, eta_hat near pi/2
        assert len(REFERENCE) >= 60
        for r in REFERENCE:
            z, want = complex(*r["lam"]), complex(*r["theta"])
            assert abs(bare_phase_1(z, r["eta"]) - want) <= 1e-12, r
            assert abs(bare_phase_1(np.array([z]), r["eta"])[0] - want) <= 1e-12, r

    def test_near_pole_values(self):
        # theta(+-0.4 + i(0.9 -+ 1e-9) | 0.9), 1e-9 from the pole at 0.9 i
        cases = [(z, eta, want) for z, eta, want in _reference("near-pole")
                 if abs(abs(z.real) - 0.4) < 1e-15 and eta == 0.9]
        assert len(cases) == 4
        for z, eta, want in cases:
            got = bare_phase_1(z, eta)
            assert abs(got - want) <= 1e-12, (z, got, want)
        # below the pole line neither route encloses the pole, so
        # theta(-conj lam) = -conj theta(lam)
        z = 0.4 + 1j * (0.9 - 1e-9)
        assert abs(bare_phase_1(-z.conjugate(), 0.9) + bare_phase_1(z, 0.9).conjugate()) <= 1e-12

    def test_finite_on_pole_line(self):
        # on a pole line away from the pole: the limit from the side beyond it
        (z, eta, want), = [c for c in _reference("on-line") if c[0] == 0.4 + 0.9j]
        got = bare_phase_1(z, eta)
        assert np.isfinite(got) and abs(got - want) <= 1e-12, (got, want)

    def test_raises_at_pole(self):
        for lam in (0.9j, 3e-11 + 0.9j, -2e-11 + 1j * (0.9 + 5e-11), 0.9j - 1j * pi):
            with pytest.raises(ContourError):
                bare_phase_1(lam, 0.9)
        with pytest.raises(ContourError):
            bare_phase_1(np.array([0.3 + 0.2j, 1e-11 - 0.9j]), 0.9)
        assert np.isfinite(bare_phase_1(2e-10 + 0.9j, 0.9))

    def test_vanishing_rule_is_shared(self):
        # sin 2 eta ~ 1e-12 passes the kernel's zero test, but the pole lines
        # pinch the real axis (eta_hat ~ 5e-13): every bare phase is 0
        eta = pi + 5e-13
        assert bare_phase_1(0.3, eta) == 0.0
        assert bare_phase_1(0.3 + 0.2j, eta) == 0.0
        assert not np.any(bare_phase_1(np.array([0.3, 0.3 + 0.2j, -1j]), eta))

    def test_real_input_real_dtype(self):
        eta = 0.7
        x = np.linspace(-4, 4, 33)
        got = bare_phase_1(x, eta)
        assert got.dtype == np.float64
        assert np.array_equal(got, 2 * np.arctan(np.tanh(x) / np.tan(w_hat(eta))))
        assert type(bare_phase_1(0.3, eta)) is float
        assert bare_phase_1(0.3, eta) == 2 * np.arctan(np.tanh(0.3) / np.tan(eta))

    def test_oddness_on_real_line(self):
        for r in range(1, 9):
            for zeta in [0.3 * pi, 0.5365 * pi, 0.85 * pi]:
                for x in [0.4, 1.7]:
                    assert abs(bare_phase(x, r, zeta) + bare_phase(-x, r, zeta)) < 1e-10

    def test_bare_phase_r1_matches_single(self):
        zeta = 0.4 * pi
        x = 0.9
        assert abs(bare_phase(x, 1, zeta) - bare_phase_1(x, zeta)) < 1e-14


class TestCombinatorics:
    def test_r1(self):
        for zeta in [0.1 * pi, 0.5 * pi, 0.9 * pi]:
            sc = string_combinatorics(1, zeta)
            assert sc.ell_r == 0 and sc.m_r == 0 and sc.kappa_r == 0

    def test_r2_ell(self):
        for zeta in [0.1 * pi, 0.45 * pi, 0.93 * pi]:
            assert string_combinatorics(2, zeta).ell_r == -1

    def test_r3_kappa(self):
        assert string_combinatorics(3, 0.3 * pi).kappa_r == 0

    def test_s_k_table_at_05365pi(self):
        zeta = 0.5365 * pi
        sc = string_combinatorics(8, zeta)
        expected = tuple(1 if math.sin(k * zeta) > 0 else -1 for k in range(1, 9))
        assert sc.s_k == expected

    @given(
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=50, deadline=None)
    def test_floor_formulas_property(self, r, zfrac):
        zeta = zfrac * pi
        sc = string_combinatorics(r, zeta)
        assert sc.ell_r == 1 - r + 2 * math.floor(r * zeta / (2 * pi))
        assert sc.kappa_r == math.floor((r - 1) * zeta / pi)
        # m_r parity bookkeeping stays integer and bounded
        assert isinstance(sc.m_r, int)

    def test_w_hat(self):
        assert abs(w_hat(0.3) - 0.3) < 1e-15
        assert abs(w_hat(pi + 0.3) - 0.3) < 1e-12
        assert abs(w_hat(2 * pi + 0.3) - 0.3) < 1e-12


class TestKernelParams:
    def test_rational_warning(self):
        with pytest.warns(UserWarning):
            KernelParams(zeta=0.5 * pi)

    def test_irrational_ok(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            KernelParams(zeta=0.5365 * pi)

    def test_domain(self):
        with pytest.raises(ValidationError):
            KernelParams(zeta=-0.1)
        with pytest.raises(ValidationError):
            KernelParams(zeta=3.2)
