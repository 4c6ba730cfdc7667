import gc
import math
import weakref
from math import pi

import numpy as np
import pytest

import xxzchain.saddles as saddles
from xxzchain.dressed import DressedSet, ModelParams, solve_dressed_set
from xxzchain.errors import (
    InvalidStringError,
    NearCriticalError,
    ValidationError,
)
from xxzchain.saddles import (
    classify_structure,
    expected_sign_at_infinity,
    fermi_velocity,
    find_saddles,
    sign_im_u_at_infinity,
    u_r,
    v_infinity,
)
from xxzchain.strings import string_exists


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


class TestVelocities:
    def test_free_fermion_closed_forms(self, ff):
        assert abs(fermi_velocity(ff) - 2 * math.sqrt(3)) < 1e-9
        assert abs(v_infinity(ff) - 4.0) < 1e-9

    def test_two_route_consistency(self, sets):
        # v_infinity raises internally when the closed form and the
        # large-lambda velocity limit split by more than 1e-6 relative
        for ds in sets.values():
            v_infinity(ds)

    def test_small_q_orders_velocities(self):
        ds = solve_dressed_set(ModelParams(J=1.0, zeta=0.5365 * pi, q=0.05))
        assert fermi_velocity(ds) < v_infinity(ds)
        tiny = solve_dressed_set(ModelParams(J=1.0, zeta=0.5365 * pi, q=1e-3))
        assert fermi_velocity(tiny) < 0.05 * v_infinity(tiny)

    def test_large_q_reverses_order(self, sets):
        # the third figure set has a Fermi velocity above v_inf
        ds = sets[(0.1065, 0.2)]
        assert fermi_velocity(ds) > v_infinity(ds)

    def test_positive(self, sets):
        for ds in sets.values():
            assert fermi_velocity(ds) > 0
            assert v_infinity(ds) > 0


class TestPhaseFunction:
    def test_large_v_limit_is_momentum(self, sets):
        ds = sets[(0.5365, 0.2)]
        for lam in [0.3, 1.1]:
            a = complex(np.asarray(u_r(lam, 1e12, 1, ds)).item())
            p = complex(ds.p_r(lam, 1))
            assert abs(a - p) < 1e-10 * max(1.0, abs(p))

    def test_real_on_real_line(self, sets):
        ds = sets[(0.9065, 0.8)]
        val = complex(np.asarray(u_r(ds.q, 1.3, 1, ds)).item())
        assert abs(val.imag) < 1e-12

    def test_free_fermion_derivative_closed_form(self, ff):
        v = 2.0
        for x in [0.1, 0.4, 0.9]:
            expected = 2 / math.cosh(2 * x) - (8 / v) * math.sinh(2 * x) / math.cosh(
                2 * x
            ) ** 2
            got = complex(np.asarray(u_r(x, v, 1, ff, 1)).item())
            assert abs(got - expected) < 1e-9

    def test_zero_velocity_rejected(self, ff):
        with pytest.raises(ValidationError):
            u_r(0.3, 0.0, 1, ff)


class TestFindSaddles:
    @pytest.mark.parametrize("v", [1.0, 2.0, 3.0])
    def test_free_fermion_hole_saddle(self, ff, v):
        saddles = find_saddles(1, v, ff)
        holes = [s for s in saddles if s.r == 0]
        assert len(holes) == 1
        assert abs(holes[0].omega - 0.5 * math.atanh(v / 4)) < 1e-9
        assert holes[0].eps_sign == -1
        assert abs(holes[0].scale - math.sqrt(abs(holes[0].u_second) / 2)) < 1e-14

    def test_free_fermion_upper_saddle(self, ff):
        saddles = find_saddles(1, 2.0, ff)
        upper = [s for s in saddles if s.r == 1]
        assert len(upper) == 1
        assert abs(upper[0].omega.imag - pi / 2) < 1e-15
        assert upper[0].eps_sign == 1

    def test_residual_invariant(self, sets):
        ds = sets[(0.9065, 0.8)]
        vinf = v_infinity(ds)
        for s in find_saddles(1, 0.5 * vinf, ds) + find_saddles(2, 0.5 * vinf, ds):
            resid = abs(complex(np.asarray(u_r(s.omega, 0.5 * vinf, max(s.r, 1), ds, 1)).item()))
            assert resid < 1e-9 * max(abs(s.u_second), 1e-8)

    def test_time_like_placement(self, sets):
        ds = sets[(0.5365, 0.2)]
        vf, vinf = fermi_velocity(ds), v_infinity(ds)
        inside = [s for s in find_saddles(1, 0.5 * vf, ds) if s.r == 0][0]
        assert -ds.q < inside.omega.real < ds.q
        outside = [s for s in find_saddles(1, 0.5 * (vf + vinf), ds) if s.r == 0][0]
        assert abs(outside.omega.real) > ds.q

    def test_nonexistent_string(self, sets):
        with pytest.raises(InvalidStringError):
            find_saddles(4, 1.0, sets[(0.5365, 0.2)])

    def test_near_critical_guard(self, sets):
        ds = sets[(0.5365, 0.2)]
        with pytest.raises(NearCriticalError):
            find_saddles(1, v_infinity(ds) * (1 + 1e-9), ds)
        with pytest.raises(NearCriticalError):
            find_saddles(1, fermi_velocity(ds), ds)


class TestParityLaw:
    @pytest.mark.parametrize("key", [(0.5365, 0.2), (0.9065, 0.8), (0.1065, 0.2)])
    def test_even_odd_counts(self, sets, key):
        ds = sets[key]
        vinf = v_infinity(ds)
        for factor, parity in [(0.5, 1), (1.5, 0)]:
            rep = classify_structure(factor * vinf, ds, r_max=5)
            for r, count in rep.counts.items():
                assert count % 2 == parity, (key, r, factor, count)


class TestClassifyStructure:
    def test_minimal_at_09065(self, sets):
        ds = sets[(0.9065, 0.8)]
        vinf = v_infinity(ds)
        rep = classify_structure(0.5 * vinf, ds, r_max=5)
        assert rep.minimal
        assert rep.counts[0] == rep.counts[1] == 1
        assert all(rep.counts[r] == 1 for r in rep.counts if r >= 2)

    def test_two_saddles_above_vinf_at_09065(self, sets):
        # the species-1 velocity exceeds v_inf on the upper line here
        ds = sets[(0.9065, 0.8)]
        vinf = v_infinity(ds)
        rep = classify_structure(1.5 * vinf, ds, r_max=3)
        assert not rep.minimal
        assert rep.counts[0] == 0 and rep.counts[1] == 2
        assert rep.thresholds[1][1] > vinf
        assert 1 in rep.n_sp

    def test_nonminimal_at_01065(self, sets):
        # v_F > v_inf and the real-line species-1 velocity exceeds v_inf
        ds = sets[(0.1065, 0.2)]
        vinf = v_infinity(ds)
        rep = classify_structure(1.3 * vinf, ds, r_max=3)
        assert not rep.minimal
        assert rep.counts[0] == 2
        assert rep.thresholds[1][1] > vinf

    def test_thresholds_at_05365(self, sets):
        ds = sets[(0.5365, 0.2)]
        vinf = v_infinity(ds)
        rep = classify_structure(0.5 * vinf, ds, r_max=8)
        # v_r^(m) = v_inf within bisection resolution for every species
        for r, (v_m, v_max) in rep.thresholds.items():
            assert abs(v_m - vinf) < 5e-3 * vinf, (r, v_m)
        # species-1 cap sits just above v_inf (genuine 0.4% overshoot on
        # the upper line); bound-state caps coincide with v_inf
        assert abs(rep.thresholds[1][1] - vinf) < 5e-3 * vinf + 0.017
        for r in rep.thresholds:
            if r >= 2:
                assert abs(rep.thresholds[r][1] - vinf) < 5e-3 * vinf


class TestSignAtInfinity:
    @pytest.mark.parametrize("key", [(0.5365, 0.2), (0.9065, 0.8)])
    def test_table_all_regimes(self, sets, key):
        ds = sets[key]
        vinf = v_infinity(ds)
        y = 0.3
        for r in (1, 2):
            for v in (1.5 * vinf, 0.5 * vinf, -0.5 * vinf):
                for side in (1, -1):
                    got = sign_im_u_at_infinity(r, v, y, side, ds)
                    want = expected_sign_at_infinity(r, v, y, side, ds, vinf=vinf)
                    assert got == want, (key, r, v / vinf, side)

    def test_negative_y(self, sets):
        ds = sets[(0.5365, 0.2)]
        vinf = v_infinity(ds)
        got = sign_im_u_at_infinity(1, 1.5 * vinf, -0.25, 1, ds)
        assert got == expected_sign_at_infinity(1, 1.5 * vinf, -0.25, 1, ds, vinf=vinf)

    def test_domain_checks(self, sets):
        ds = sets[(0.5365, 0.2)]
        with pytest.raises(ValidationError):
            sign_im_u_at_infinity(1, 1.0, 1.7, 1, ds)
        with pytest.raises(ValidationError):
            sign_im_u_at_infinity(1, 1.0, 0.3, 2, ds)


class TestCarrierLineMemo:
    """p_r' and eps_r' on the scan grid are computed once per set and line."""

    @staticmethod
    def _lines(ds):
        return [(1, 0.0), (1, pi / 2), (2, string_exists(2, ds.zeta).line_im)]

    @staticmethod
    def _fresh():
        return solve_dressed_set(ModelParams(J=1.0, zeta=0.5365 * pi, q=0.2, order=32))

    def test_scan_equals_u_r_d1(self, sets):
        ds = sets[(0.5365, 0.2)]
        vinf = v_infinity(ds)
        for r, line_im in self._lines(ds):
            for v in (0.3 * vinf, 0.8 * vinf, 1.3 * vinf, -0.8 * vinf):
                grid, vals = saddles._scan(ds, r, v, line_im)
                want = np.real(u_r(grid + 1j * line_im, v, r, ds, 1))
                assert np.array_equal(vals, want), (r, line_im, v / vinf)

    def test_one_grid_evaluation_per_line(self, monkeypatch):
        ds = self._fresh()
        calls = []
        for name in ("p_r_d", "eps_r"):
            method = getattr(DressedSet, name)

            def counted(self, lam, r=1, *k, _name=name, _method=method):
                if np.size(lam) == saddles.SCAN_POINTS:
                    calls.append((_name, r))
                return _method(self, lam, r, *k)

            monkeypatch.setattr(DressedSet, name, counted)
        vinf = v_infinity(ds)
        classify_structure(0.6 * vinf, ds, r_max=2)
        assert sorted(calls) == sorted(
            [("p_r_d", 1), ("p_r_d", 1), ("p_r_d", 2),
             ("eps_r", 1), ("eps_r", 1), ("eps_r", 2)]
        )
        calls.clear()
        classify_structure(0.7 * vinf, ds, r_max=2)
        assert calls == []

    def test_memo_dies_with_set(self):
        ds = self._fresh()
        classify_structure(0.6 * v_infinity(ds), ds, r_max=2)
        assert len(ds._line_cache) == 3
        ref = weakref.ref(ds)
        del ds
        gc.collect()
        assert ref() is None

    def test_memo_read_only(self, sets):
        ds = sets[(0.5365, 0.2)]
        for r, line_im in self._lines(ds):
            for arr in saddles._line_curves(ds, r, line_im):
                with pytest.raises(ValueError):
                    arr[0] = 0.0
