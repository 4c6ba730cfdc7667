import gc
import json
import math
import weakref
from math import pi

import numpy as np
import pytest

import xxzchain.saddles as saddles
from oracles import expected_sign_at_infinity, sign_im_u_at_infinity
from xxzchain.cli import run
from xxzchain.dressed import DressedSet, ModelParams, solve_dressed_set
from xxzchain.quadrature import find_root_bracketed
from xxzchain.errors import (
    InvalidStringError,
    NearCriticalError,
    ValidationError,
)
from xxzchain.saddles import (
    classify_structure,
    fermi_velocity,
    find_saddles,
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

    def test_given_vinf_is_used(self, sets, monkeypatch):
        ds = sets[(0.9065, 0.8)]
        vinf = v_infinity(ds)
        want = classify_structure(0.5 * vinf, ds, r_max=3)

        def refuse(ds):
            raise AssertionError("v_inf recomputed")

        monkeypatch.setattr(saddles, "v_infinity", refuse)
        assert classify_structure(0.5 * vinf, ds, r_max=3, vinf=vinf) == want

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
        for r, got in rep.thresholds.items():
            _assert_thresholds(got, _reference_thresholds(ds, r, vinf), vinf)
        # bound states have monotone velocity curves: both thresholds are v_inf;
        # species 1 overshoots v_inf by 0.4% on the upper line
        assert all(rep.thresholds[r] == (vinf, vinf) for r in rep.thresholds if r >= 2)
        assert rep.thresholds[1][0] == vinf
        assert 1.003 * vinf < rep.thresholds[1][1] < 1.005 * vinf


def _line_speeds(ds, r, line_im, vinf):
    """|V_r| at the extrema of V_r = eps_r'/p_r' at Re lam >= 0 on one line,
    each refined by brentq on eps_r'' p_r' - eps_r' p_r''; extrema within
    1e-9 of v_inf (rounding wiggles in the tails) are left out."""
    grid = np.linspace(0.0, saddles.SCAN_HALF_WIDTH, saddles.SCAN_POINTS // 2)

    def curves(x):
        lam = x + 1j * line_im
        return [np.real(f(lam, r, k)) for f in (ds.eps_r, ds.p_r_d) for k in (1, 2)]

    def slope_numerator(x):
        e1, e2, p1, p2 = curves(x)
        return e2 * p1 - e1 * p2

    e1, _, p1, _ = curves(grid)
    g = slope_numerator(grid)
    out = []
    for i in np.nonzero(g[:-1] * g[1:] < 0)[0]:
        if abs(abs(e1[i] / p1[i]) - vinf) < 1e-9 * vinf:
            continue
        x = find_root_bracketed(
            lambda x: float(slope_numerator(x)), float(grid[i]), float(grid[i + 1])
        )
        e1x, _, p1x, _ = curves(x)
        out.append(abs(float(e1x / p1x)))
    return out


def _lines(ds, r):
    return (0.0, pi / 2) if r == 1 else (string_exists(r, ds.zeta).line_im,)


def _reference_thresholds(ds, r, vinf):
    speeds = [vinf] + [s for im in _lines(ds, r) for s in _line_speeds(ds, r, im, vinf)]
    return min(speeds), max(speeds)


def _assert_thresholds(got, want, vinf):
    # v_inf itself is taken as given; an extremal value to 1e-8 relative
    assert got[0] <= got[1], got
    for g, w in zip(got, want):
        assert type(g) is float
        assert g == w if w == vinf else abs(g - w) <= 1e-8 * w, (got, want, vinf)


class TestThresholds:
    """v_r^(m) and v_r^(M) from the extrema of V_r on each carrier line."""

    POINTS = [(0.4204, 0.45), (0.7295, 0.3), (0.8633, 0.763)]

    @pytest.fixture(scope="class")
    def order32(self):
        return {
            key: solve_dressed_set(ModelParams(J=1.0, zeta=key[0] * pi, q=key[1], order=32))
            for key in self.POINTS
        }

    @pytest.mark.parametrize("key", POINTS, ids=[f"{z}pi-q{q}" for z, q in POINTS])
    def test_match_refined_extrema(self, order32, key):
        ds = order32[key]
        vinf = v_infinity(ds)
        rep = classify_structure(0.5 * vinf, ds, r_max=2)
        assert set(rep.thresholds) == {1, 2}
        for r, got in rep.thresholds.items():
            _assert_thresholds(got, _reference_thresholds(ds, r, vinf), vinf)
            for line_im in _lines(ds, r):
                got_line = sorted(saddles._line_curves(ds, r, line_im)[3][:, 3])
                want_line = sorted(_line_speeds(ds, r, line_im, vinf))
                assert len(got_line) == len(want_line), (r, line_im)
                for g, w in zip(got_line, want_line):
                    assert abs(g - w) <= 1e-8 * w, (r, line_im, g, w)

    def test_monotone_and_overshoot(self, order32):
        # 0.4204 pi: V_2 is monotone, so both r = 2 thresholds are v_inf
        ds = order32[(0.4204, 0.45)]
        vinf = v_infinity(ds)
        assert saddles._thresholds(ds, 2, vinf) == (vinf, vinf)
        # 0.8633 pi: V_1 overshoots v_inf on the upper line only, V_2 on its line
        ds = order32[(0.8633, 0.763)]
        vinf = v_infinity(ds)
        assert len(saddles._line_curves(ds, 1, 0.0)[3]) == 0
        assert len(saddles._line_curves(ds, 1, pi / 2)[3]) == 1
        for r, lo, hi in ((1, 3.0, 3.3), (2, 1.5, 1.7)):
            v_min, v_max = saddles._thresholds(ds, r, vinf)
            assert v_min == vinf and lo * vinf < v_max < hi * vinf, (r, v_max / vinf)

    def test_counts_change_only_at_thresholds(self, order32):
        # above v_r^(M) no saddle; between v_inf and v_r^(M) two per overshoot,
        # also 1e-5 off the peak, where both share one cell of the scan grid
        ds = order32[(0.8633, 0.763)]
        vinf = v_infinity(ds)
        for r in (1, 2):
            v_max = saddles._thresholds(ds, r, vinf)[1]
            above = find_saddles(r, 1.01 * v_max, ds)
            assert len(above) == 0, (r, len(above))
            for factor in (0.99, 1 - 1e-5):
                below = find_saddles(r, factor * v_max, ds)
                assert len(below) == 2, (r, factor, len(below))

    @pytest.mark.parametrize("key", POINTS, ids=[f"{z}pi-q{q}" for z, q in POINTS])
    def test_counts_agree_with_species_list(self, order32, key):
        # a species has saddles exactly where v_r^(M) puts it into n_sp
        ds = order32[key]
        vinf = v_infinity(ds)
        for r in (1, 2):
            v_max = saddles._thresholds(ds, r, vinf)[1]
            for factor in (1 - 1e-2, 1 - 1e-3, 1 - 1e-4, 1 - 1e-5, 1 + 1e-4):
                rep = classify_structure(factor * v_max, ds, r_max=2, vinf=vinf)
                count = rep.counts[0] + rep.counts[1] if r == 1 else rep.counts[r]
                assert (count > 0) == (r in rep.n_sp), (r, factor, rep.counts, rep.n_sp)

    def test_extremal_speed_guard(self, order32):
        ds = order32[(0.8633, 0.763)]
        v_max = saddles._thresholds(ds, 1, v_infinity(ds))[1]
        with pytest.raises(NearCriticalError):
            find_saddles(1, v_max * (1 - 1e-7), ds)
        with pytest.raises(NearCriticalError):
            classify_structure(-v_max * (1 + 1e-7), ds, r_max=2)

    def test_sign_change_of_momentum_gives_none(self, monkeypatch):
        ds = solve_dressed_set(ModelParams(J=1.0, zeta=0.4204 * pi, q=0.45, order=32))
        vinf = v_infinity(ds)
        p_eps_d = DressedSet.p_eps_d

        def flipped(self, lam, r=1, k=1):
            p, e = p_eps_d(self, lam, r, k)
            return (np.where(np.abs(np.real(lam)) < 1.0, -p, p) if r == 2 else p), e

        monkeypatch.setattr(DressedSet, "p_eps_d", flipped)
        assert saddles._thresholds(ds, 2, vinf) == (None, None)
        assert saddles._line_curves(ds, 2, string_exists(2, ds.zeta).line_im)[3] is None

    def test_reported_species_at_04204(self, capsys):
        # v just below v_inf: the r = 2 saddle is reported and r = 2 is in n_sp
        argv = ["saddles", "--zeta", "0.4204pi", "--q", "0.45", "--v", "4.4395", "--rmax", "2"]
        assert run(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["counts"] == {"0": 1, "1": 1, "2": 1}
        assert out["n_sp"] == [1, 2]
        for v_min, v_max in out["thresholds"].values():
            assert v_min <= out["v_inf"] <= v_max


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

    @staticmethod
    def _count_calls(monkeypatch, size):
        """(method, r) of every p_r_d, eps_r and p_eps_d call on `size` points."""
        calls = []
        for name in ("p_r_d", "eps_r", "p_eps_d"):
            method = getattr(DressedSet, name)

            def counted(self, lam, r=1, *k, _name=name, _method=method):
                if np.size(lam) == size:
                    calls.append((_name, r))
                return _method(self, lam, r, *k)

            monkeypatch.setattr(DressedSet, name, counted)
        return calls

    def test_one_grid_evaluation_per_line(self, monkeypatch):
        ds = self._fresh()
        calls = self._count_calls(monkeypatch, saddles.SCAN_POINTS // 2)
        vinf = v_infinity(ds)
        classify_structure(0.6 * vinf, ds, r_max=2)
        assert sorted(calls) == [("p_eps_d", 1), ("p_eps_d", 1), ("p_eps_d", 2)]
        calls.clear()
        classify_structure(0.7 * vinf, ds, r_max=2)
        assert calls == []

    def test_one_refinement_per_extremum(self, monkeypatch):
        ds = self._fresh()
        calls = self._count_calls(monkeypatch, saddles.REFINE_POINTS)
        vinf = v_infinity(ds)
        classify_structure(0.6 * vinf, ds, r_max=2)
        classify_structure(0.7 * vinf, ds, r_max=2)
        want = []
        for r, line_im in self._lines(ds):
            want += [("p_eps_d", r)] * len(saddles._line_curves(ds, r, line_im)[3])
        assert want and sorted(calls) == sorted(want)

    def test_memo_dies_with_set(self):
        ds = self._fresh()
        classify_structure(0.6 * v_infinity(ds), ds, r_max=2)
        assert len(ds._line_cache) == 3
        ref = weakref.ref(ds)
        del ds
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("zeta_frac, q", [(0.5365, 0.2), (0.35, 2.0)])
    def test_half_grid_mirrors_exactly(self, zeta_frac, q):
        # eps_r' odd and p_r' even in Re lam; the mirrored half agrees with
        # a direct evaluation on the whole grid
        ds = solve_dressed_set(ModelParams(J=1.0, zeta=zeta_frac * pi, q=q, order=32))
        for r, line_im in self._lines(ds):
            grid, pd1, ed1 = saddles._line_curves(ds, r, line_im)[:3]
            assert len(grid) == saddles.SCAN_POINTS
            assert np.array_equal(grid, -grid[::-1])
            assert np.array_equal(pd1, pd1[::-1]) and np.array_equal(ed1, -ed1[::-1])
            lam = grid + 1j * line_im
            for got, want in ((pd1, ds.p_r_d(lam, r)), (ed1, ds.eps_r(lam, r, 1))):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_memo_read_only(self, sets):
        ds = sets[(0.5365, 0.2)]
        for r, line_im in self._lines(ds):
            for arr in saddles._line_curves(ds, r, line_im):
                with pytest.raises(ValueError):
                    arr[0] = 0.0
