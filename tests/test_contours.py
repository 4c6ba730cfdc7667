import cmath
import json
import math
import tracemalloc
import warnings
from math import pi
from pathlib import Path

import numpy as np
import pytest

from oracles import phi11
import xxzchain.contours as contours
from xxzchain.contours import (
    ContourSpec,
    Integrand20,
    Integrand300,
    Panel,
    Reduced001,
    Reduced01,
    Reduced110,
    TestFunctionJ,
    certify_clearance,
    contour_c1,
    contour_c1a,
    contour_c2,
    contour_c3,
    correction_active,
    eval_identity_n2,
    eval_identity_n3,
    reduce_residue,
    standard_test_functions,
    tau_parameters,
    verify_multiple_integrals,
)
from xxzchain.errors import (
    DegenerateAnisotropyError,
    PoleProximityError,
    ReductionMismatchError,
    ValidationError,
)

RNG = np.random.default_rng(7)
N2_QUICK_REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "n2_quick_reference.json").read_text()
)
# lhs and rhs of the small-compactification and n=3 cases below, written by
# tests/data/make_contour_reference.py
CONTOUR_REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "contour_reference.json").read_text()
)


def _assert_reference(rep, name):
    for side in ("lhs", "rhs"):
        want = complex(*CONTOUR_REFERENCE[name][side])
        assert abs(rep[side] - want) < 1e-13 * abs(want), (name, side, rep[side])


def _random_points(n):
    return RNG.uniform(-1.5, 1.5, n) + 1j * RNG.uniform(-0.2, 0.2, n)


class TestTestFunction:
    def test_symmetry(self):
        J = TestFunctionJ(3, (2.0 + 1.5j,))
        a, b, c = _random_points(3)
        assert abs(J(a, b, c) - J(c, a, b)) < 1e-12 * abs(J(a, b, c))

    def test_periodicity(self):
        J = TestFunctionJ(2, (1.8 - 1.2j,))
        for p in _random_points(5):
            assert abs(J.g(p + 1j * pi) - J.g(p)) < 1e-12 * abs(J.g(p))

    def test_decay(self):
        for J in standard_test_functions(2):
            far = abs(J.g(10.0))
            assert far < 5.0 * math.exp(-2 * 10.0)

    def test_zero(self):
        J = TestFunctionJ.zero(2)
        assert J.is_zero
        assert J(0.3, 0.5) == 0.0

    def test_poles_are_actual_poles(self):
        J = TestFunctionJ(2, (2.0 + 1.5j,))
        for p in J.g_poles()[:4]:
            assert abs(J.g(p + 1e-7)) > 1e5

    @pytest.mark.parametrize("zeta", [0.35 * pi, 0.65 * pi])
    def test_family_clearance(self, zeta):
        # design margin: poles at least 0.05 from every base contour
        for J in standard_test_functions(2):
            for c in (contour_c1(zeta), contour_c2(zeta), contour_c3(zeta)):
                assert certify_clearance(c, J.g_poles(), 0.05) >= 0.05


def _loop_clearance(contour, poles):
    """Scalar pole-then-segment scan: (smallest distance, first pole at it)."""
    worst, worst_pole = math.inf, None
    for p in poles:
        for a, b in contour.segments():
            a, b, p_ = complex(a), complex(b), complex(p)
            ab = b - a
            denom = abs(ab) ** 2
            if denom == 0.0:
                d = abs(p_ - a)
            else:
                t = min(1.0, max(0.0, ((p_ - a) * ab.conjugate()).real / denom))
                d = abs(a + t * ab - p_)
            if d < worst:
                worst, worst_pole = d, p
    return worst, worst_pole


class TestClearance:
    def test_matches_loop_bit_for_bit(self):
        zeta = 0.35 * pi
        rng = np.random.default_rng(5)
        point = ContourSpec("pt", (Panel(1.0 + 1.0j, 1.0 + 1.0j), Panel(-2.0, 2.0)))
        for c in (
            contour_c1(zeta),
            contour_c1a(zeta, 1, -1, 3.5, order=24, inset=0.02, refine=True),
            point,
        ):
            for J in standard_test_functions(2):
                for poles in (
                    J.g_poles(),
                    Reduced01(J, zeta).poles(),
                    list(rng.uniform(-13, 13, 20) + 1j * rng.uniform(-2, 2, 20)),
                ):
                    worst, _ = _loop_clearance(c, poles)
                    assert certify_clearance(c, poles, 0.0).hex() == worst.hex()

    def test_error_names_first_worst_pole(self):
        # two poles tied at 5e-4 from the real line, a third at 6e-4
        c = contour_c2(0.35 * pi)
        poles = [3.0 + 2j, 0.25 - 5e-4j, -0.75 + 5e-4j, 0.5 + 6e-4j]
        assert _loop_clearance(c, poles)[1] == poles[1]
        with pytest.raises(PoleProximityError) as err:
            certify_clearance(c, poles, label="x")
        assert str(err.value) == "pole (0.25-0.0005j) within 5.000e-04 of contour C2 (x)"


class TestTau:
    def test_regimes(self):
        assert tau_parameters(1.5) == (1, 1)
        assert tau_parameters(-1.5) == (1, 1)
        assert tau_parameters(0.5) == (1, -1)
        assert tau_parameters(-0.5) == (-1, 1)

    def test_guards(self):
        for v in (0.0, 1.0, -1.0, 1.0 + 1e-9):
            with pytest.raises(ValidationError):
                tau_parameters(v)


class TestPhi11:
    def test_zero_at_origin(self):
        assert phi11(0.0, 0.35 * pi) == 0.0

    def test_periodicity(self):
        z = 0.4 - 0.1j
        assert abs(phi11(z + 1j * pi, 0.35 * pi) - phi11(z, 0.35 * pi)) < 1e-14

    def test_half_shift_value(self):
        zeta = 0.42 * pi
        assert abs(phi11(0.5j * zeta, zeta) + 1.0) < 1e-14

    def test_pole_guard(self):
        zeta = 0.35 * pi
        with pytest.raises(PoleProximityError):
            phi11(1j * zeta + 1e-10, zeta)


class TestReductions:
    @pytest.mark.parametrize("zeta", [0.35 * pi, 0.2 * pi])
    def test_cluster2_residue(self, zeta):
        J = TestFunctionJ(2, (2.0 + 1.5j,))
        j20 = Integrand20(J, zeta)
        red = Reduced01(J, zeta)
        for nu1 in _random_points(10):
            got = 1j * contours._circle_residue(
                lambda z: j20(nu1, z), nu1 - 1j * zeta
            )
            want = complex(red(nu1 - 0.5j * zeta))
            assert abs(got - want) < 1e-8 * max(1.0, abs(want))

    def test_mixed_residue(self):
        zeta = 0.2 * pi
        J = TestFunctionJ(3, (1.8 - 1.2j,))
        j300 = Integrand300(J, zeta)
        red = Reduced110(J, zeta)
        for nu1 in _random_points(5):
            nu2 = nu1 + 0.4 - 0.05j
            got = 1j * contours._circle_residue(
                lambda z: j300(nu1, nu2, z), nu2 - 1j * zeta
            )
            want = complex(red(nu1, nu2 - 0.5j * zeta))
            assert abs(got - want) < 1e-8 * max(1.0, abs(want))

    def test_cluster3_double_residue(self):
        zeta = 0.2 * pi
        J = TestFunctionJ(3, (2.0 + 1.5j,))
        # construction runs the nested double-residue cross-check
        red = reduce_residue(J, (0, 0, 1), zeta)
        assert isinstance(red, Reduced001)

    def test_mismatch_detected(self, monkeypatch):
        J = TestFunctionJ(2, (2.0 + 1.5j,))
        monkeypatch.setattr(contours, "_prefactor2", lambda z: 1.0)
        with pytest.raises(ReductionMismatchError):
            reduce_residue(J, (0, 1), 0.35 * pi)

    def test_unknown_target(self):
        with pytest.raises(ValidationError):
            reduce_residue(TestFunctionJ(2, (2.0 + 1.5j,)), (2, 0), 0.35 * pi)


def _sinh_pair20(x, zeta):
    return np.sinh(x) ** 2 / (np.sinh(x - 1j * zeta) * np.sinh(x + 1j * zeta))


def _sinh_pair110(x, zeta):
    num = np.sinh(x - 0.5j * zeta) * np.sinh(x + 0.5j * zeta)
    den = np.sinh(x - 1.5j * zeta) * np.sinh(x + 1.5j * zeta)
    return num / den


class TestPairKernels:
    @pytest.mark.parametrize("zeta", [0.2 * pi, 0.35 * pi, 0.65 * pi])
    def test_rational_form_matches_sinh_form(self, zeta):
        rng = np.random.default_rng(11)
        re = rng.uniform(-24.0, 24.0, 400)
        im = np.concatenate(
            [rng.uniform(-pi / 2, pi / 2, 200), np.full(100, pi / 2), np.full(100, -pi / 2)]
        )
        x = np.concatenate([re + 1j * im, [24.0 + 0.5j * pi, -24.0 - 0.5j * pi]])
        for pair, sinh_form, coeffs in (
            (contours._pair20, _sinh_pair20, contours._pair20_coeffs),
            (contours._pair110, _sinh_pair110, contours._pair110_coeffs),
        ):
            want = sinh_form(x, zeta)
            for got in (
                pair(x, zeta),
                contours._pair_ratio(np.exp(2.0 * x), *coeffs(zeta)),
            ):
                assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13

    @pytest.mark.parametrize("case", ["pair20", "pair110", "self"])
    def test_blocked_sum_matches_dense(self, case):
        # more than one block, and a last block shorter than the others
        zeta = 0.35 * pi
        cA = contour_c1(zeta, L=4.0, order=24)
        cB = contour_c1a(zeta, 1, -1, 4.0, order=24, inset=0.01)
        dA, dB = cA.discretize(), cB.discretize()
        (nA, wA), (nB, wB) = dA, dB
        block = contours.PAIR_BLOCK_ROWS
        assert len(nA) > block and len(nA) % block != 0
        x = nA[:, None] - nB[None, :]
        if case == "self":
            # C1 with itself: only the blocks on and right of the diagonal are built
            J = TestFunctionJ(2, (2.0 + 1.5j,))
            v = wA * J.g(nA)
            xx = nA[:, None] - nA[None, :]
            want = v @ _sinh_pair20(xx, zeta) @ v
            got = contours._int2_pair(dA, dA, J, zeta) * (2 * pi) ** 2
            assert abs(got - want) < 1e-13 * abs(want)
            want = v @ _sinh_pair110(xx, zeta) @ v
            got = contours._pair_form(nA, v, nA, v, contours._pair110_coeffs(zeta))
            assert abs(got - want) < 1e-13 * abs(want)
            return
        if case == "pair110":
            J = TestFunctionJ(3, (1.8 - 1.2j,))
            red = Reduced110(J, zeta)
            got = contours._int2_reduced(dA, dB, red)
            F = (
                red.prefactor
                * _sinh_pair110(x, zeta)
                * J.g(nA)[:, None]
                * (J.g(nB + 0.5j * zeta) * J.g(nB - 0.5j * zeta))[None, :]
            )
            want = wA @ F @ wB / (2 * pi) ** 2
        else:
            J = TestFunctionJ(2, (2.0 + 1.5j,))
            got = contours._int2_pair(dA, dB, J, zeta)
            want = (wA * J.g(nA)) @ _sinh_pair20(x, zeta) @ (wB * J.g(nB)) / (2 * pi) ** 2
        assert abs(got - want) < 1e-13 * abs(want)

    def test_weights_finite_at_truncation_limit(self):
        # contours of half-length L put |Re x| = 2 L between their ends; the
        # RuntimeWarning filter of pyproject.toml is repeated so the test
        # stands alone
        L = contours.MAX_TRUNCATION
        zeta = 0.35 * pi
        nA = np.array([L, L + 0.5j * pi, L - 0.2j, L - 0.5j * pi])
        nB = -nA
        v = np.array([1.0, -0.5j, 0.25, 2.0 + 1.0j])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for pair, sinh_form, coeffs in (
                (contours._pair20, _sinh_pair20, contours._pair20_coeffs),
                (contours._pair110, _sinh_pair110, contours._pair110_coeffs),
            ):
                for x0, x1 in ((nA, nB), (nB, nA)):
                    x = x0[:, None] - x1[None, :]
                    assert np.all(np.abs(x.real) == 2 * L)
                    want = sinh_form(x, zeta)
                    for got in (
                        pair(x, zeta),
                        contours._pair_matrix(x0, x1, coeffs(zeta)),
                    ):
                        assert np.all(np.isfinite(got))
                        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13
                    got = contours._pair_form(x0, v, x1, v, coeffs(zeta))
                    assert abs(got - v @ want @ v) < 1e-13 * abs(v @ want @ v)

    def test_lhs_pair_matrix_built_once(self, monkeypatch):
        zeta = 0.35 * pi
        J = TestFunctionJ(3, (2.0 + 1.5j,))
        copies = [contour_c1(zeta, L=4.0, order=24).discretize() for _ in range(3)]
        three = contours._int3_pair(*copies, J, zeta)
        calls = []
        orig = contours._pair_matrix
        monkeypatch.setattr(
            contours, "_pair_matrix", lambda *a: calls.append(a) or orig(*a)
        )
        d = copies[0]
        assert contours._int3_pair(d, d, d, J, zeta) == three
        assert len(calls) == 1

    def test_n2_peak_memory_bounded(self):
        J = TestFunctionJ(2, (2.0 + 1.5j,), label="w1")
        tracemalloc.start()
        try:
            eval_identity_n2(J, 0.5, 0.35 * pi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


def _dense_form(nA, vA, nB, vB, coeffs):
    # the all-pairs sum: one reciprocal of the rank-3 product per node pair
    a, b = coeffs
    left, right = contours._pair_factors(nA, nB, b)
    return np.sum(vA) * np.sum(vB) + (a - b) * (vA @ (1.0 / (left @ right)) @ vB)


def _far_field_sets(kind):
    """Two node sets for TestPairFarField, and whether they stay off the poles
    of S at zeta = pi/2 (pair20) and pi/3 (pair110)."""
    rng = np.random.default_rng(23)

    def scatter(lo, hi, n):
        return rng.uniform(lo, hi, n) + 1j * rng.uniform(-0.25, 0.25, n)

    if kind == "one-cell":
        return scatter(0.05, 0.95, 300), scatter(0.05, 0.95, 200), True
    if kind == "many-cells":
        return scatter(-9.0, 9.0, 700), scatter(-6.5, 11.0, 500), True
    if kind == "vertical":
        # columns on cell edges, just below one, and inside cells
        cols = np.array([-3.0, -0.5, 0.0, 1.0 - 1e-13, 2.0, 4.0, 6.25])
        nA = rng.choice(cols, 400) + 1j * rng.uniform(-0.25, 0.25, 400)
        return np.concatenate([nA, scatter(-4.0, 7.0, 100)]), scatter(-4.0, 7.0, 300), True
    if kind == "contours":
        zeta = 0.35 * pi
        nA, _ = contour_c1(zeta, L=6.0, order=16).discretize()
        nB, _ = contour_c1a(zeta, 1, -1, 3.5, order=16, inset=0.02, refine=True).discretize()
        return nA, nB, False
    # both ends at |Re x| = MAX_TRUNCATION, so |Re (x_i - x_j)| reaches twice that
    L = contours.MAX_TRUNCATION
    ends = np.array([L, -L, L + 0.25j, -L - 0.25j])
    nA = np.concatenate([ends, scatter(-L, L, 600)])
    return nA, np.concatenate([-ends, scatter(-L, L, 400)]), True


class TestPairFarField:
    # pair20 at pi/2 and pair110 at pi/3 put 1 - b/2 at -1, where
    # |U_m(1 - b/2)| = m + 1 reaches its bound
    @pytest.mark.parametrize("symmetric", [False, True], ids=["pair", "self"])
    @pytest.mark.parametrize(
        "kind", ["one-cell", "many-cells", "vertical", "contours", "truncation-limit"]
    )
    def test_matches_dense_sum(self, kind, symmetric):
        nA, nB, off_poles = _far_field_sets(kind)
        rng = np.random.default_rng(5)
        cases = [
            (contours._pair20_coeffs, 0.35 * pi),
            (contours._pair110_coeffs, 0.35 * pi),
        ]
        if off_poles:
            cases += [(contours._pair20_coeffs, pi / 2), (contours._pair110_coeffs, pi / 3)]
        # values of one rough phase, so the sums do not cancel to rounding
        vA, vB = (
            rng.uniform(0.5, 1.5, len(n)) * np.exp(1j * rng.uniform(-0.5, 0.5, len(n)))
            for n in (nA, nB)
        )
        if symmetric:
            nB, vB = nA, vA
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for coeffs, zeta in cases:
                got = contours._pair_form(nA, vA, nB, vB, coeffs(zeta))
                want = _dense_form(nA, vA, nB, vB, coeffs(zeta))
                assert abs(got - want) < 1e-14 * abs(want), (coeffs.__name__, zeta, got, want)


class TestIdentityN2:
    @pytest.mark.parametrize("v", [1.5, 0.5, -0.5])
    @pytest.mark.parametrize("zeta", [0.35 * pi, 0.65 * pi])
    def test_regime_sweep(self, v, zeta):
        rep = eval_identity_n2(TestFunctionJ(2, (2.0 + 1.5j,), label="w1"), v, zeta)
        assert rep["rel_diff"] < 1e-6, rep
        assert rep["tail_bound"] <= math.exp(-2 * 12)

    @pytest.mark.parametrize("J", standard_test_functions(2)[1:], ids=lambda J: J.label)
    def test_other_functions(self, J):
        rep = eval_identity_n2(J, 0.5, 0.35 * pi)
        assert rep["rel_diff"] < 1e-6, rep

    def test_small_compactification(self):
        # at A=3.5 the residue rays and vertical closures carry weight
        # well above tolerance, so the deformation bookkeeping is live
        rep = eval_identity_n2(
            TestFunctionJ(2, (2.0 + 1.5j,)),
            1.5,
            0.35 * pi,
            A=3.5,
            levels=2,
            separation=0.02,
        )
        assert rep["rel_diff"] < 1e-6, rep
        _assert_reference(rep, "n2_small_compactification")

    def test_outer_loop_discretized_once(self, monkeypatch):
        calls = []
        orig = ContourSpec.discretize

        def spy(self):
            calls.append(self.cid)
            return orig(self)

        monkeypatch.setattr(ContourSpec, "discretize", spy)
        eval_identity_n2(
            TestFunctionJ(2, (2.0 + 1.5j,)),
            1.5,
            0.35 * pi,
            A=3.5,
            levels=2,
            separation=0.02,
        )
        # C1, C2 and the rays once each; C1A once outer and once per level inner
        assert sorted(calls) == ["C1", "C1A", "C1A", "C1A", "C2", "C2A-rays"]

    def test_small_compactification_needs_rays(self, monkeypatch):
        orig = contours.ray_panels_c2a
        monkeypatch.setattr(
            contours,
            "ray_panels_c2a",
            lambda *a, **k: [Panel(p.a, p.b, 0.0, p.order) for p in orig(*a, **k)],
        )
        rep = eval_identity_n2(
            TestFunctionJ(2, (2.0 + 1.5j,)),
            1.5,
            0.35 * pi,
            A=3.5,
            levels=2,
            separation=0.02,
        )
        assert rep["rel_diff"] > 1e-6

    def test_quick_matrix_matches_reference(self):
        # lhs and rhs of `xxz verify --suite quick`, written by
        # tests/data/make_n2_quick_reference.py
        labels = {J.label: J for J in standard_test_functions(2)}
        for row in N2_QUICK_REFERENCE:
            J = labels[row["label"]]
            rep = eval_identity_n2(J, row["v"], row["zeta_over_pi"] * pi)
            for side in ("lhs", "rhs"):
                want = complex(*row[side])
                assert abs(rep[side] - want) < 1e-13 * abs(want), (row, side, rep[side])

    def test_zero_function(self):
        rep = eval_identity_n2(TestFunctionJ.zero(2), 1.5, 0.35 * pi)
        assert rep["lhs"] == 0 and rep["rhs"] == 0 and rep["rel_diff"] == 0.0

    def test_regime_guard(self):
        J = TestFunctionJ(2, (2.0 + 1.5j,))
        with pytest.raises(ValidationError):
            eval_identity_n2(J, 0.0, 0.35 * pi)
        with pytest.raises(ValidationError):
            eval_identity_n2(J, 1.0 + 1e-9, 0.35 * pi)

    def test_truncation_guard(self):
        # the pair weights would overflow to NaN on contours this long
        J = TestFunctionJ(2, (2.0 + 1.5j,))
        with pytest.raises(ValidationError):
            eval_identity_n2(J, 1.5, 0.35 * pi, L=contours.MAX_TRUNCATION + 10.0)

    def test_degenerate_anisotropy(self):
        with pytest.raises(DegenerateAnisotropyError):
            eval_identity_n2(TestFunctionJ(2, (2.0 + 1.5j,)), 1.5, pi / 2)

    def test_pole_on_contour_rejected(self):
        # poles at 0.5 + 1e-4j sit within 1e-3 of the real line
        w = cmath.cosh(2 * (0.5 + 1e-4j))
        with pytest.raises(PoleProximityError):
            eval_identity_n2(TestFunctionJ(2, (w,)), 1.5, 0.35 * pi)


@pytest.mark.slow
class TestIdentityN3:
    @pytest.mark.parametrize("v", [1.5, 0.5])
    def test_correction_absent(self, v, n3_correction_absent):
        rep = n3_correction_absent[0][v]
        assert rep["rel_diff"] < 1e-4, rep
        assert not rep["correction_active"]
        _assert_reference(rep, f"n3_correction_absent_v{v}")

    def test_correction_branch(self):
        rep = eval_identity_n3(TestFunctionJ(3, (2.0 + 1.5j,)), 0.5, 0.2 * pi)
        assert rep["rel_diff"] < 1e-4, rep
        assert rep["correction_active"]
        _assert_reference(rep, "n3_correction_branch")

    def test_small_compactification(self, monkeypatch):
        insets = []
        orig = contours.contour_c1a
        monkeypatch.setattr(
            contours, "contour_c1a", lambda *a: insets.append(a[5]) or orig(*a)
        )
        rep = eval_identity_n3(
            TestFunctionJ(3, (2.0 + 1.5j,)),
            1.5,
            0.35 * pi,
            A=3.5,
            levels=2,
            separation=0.02,
        )
        assert rep["rel_diff"] < 1e-4, rep
        _assert_reference(rep, "n3_small_compactification")
        # one loop per distinct separation across both Richardson levels
        assert sorted(insets) == [0.0, 0.02, 0.04, 0.08]

    @pytest.mark.parametrize("zeta, v, extra", [
        (0.35 * pi, 1.5, []),
        (0.2 * pi, 0.5, ["J_Av"]),
    ], ids=["correction-absent", "correction-branch"])
    def test_each_contour_discretized_once(self, monkeypatch, zeta, v, extra):
        calls = []
        orig = ContourSpec.discretize

        def spy(self):
            calls.append(self.cid)
            return orig(self)

        monkeypatch.setattr(ContourSpec, "discretize", spy)
        # a low order keeps it quick: only the calls are counted
        eval_identity_n3(
            TestFunctionJ(3, (2.0 + 1.5j,)), v, zeta,
            A=3.5, order=12, levels=2, separation=0.02,
        )
        # C1A once per separation 0, 0.02, 0.04 and 0.08
        assert sorted(calls) == sorted(
            ["C1", "C2", "C3", "C2A-rays", "C3A-tails"] + ["C1A"] * 4 + extra
        )

    def test_anisotropy_thirds_rejected(self):
        with pytest.raises(DegenerateAnisotropyError):
            eval_identity_n3(TestFunctionJ(3, (2.0 + 1.5j,)), 1.5, pi / 3)


class TestCorrectionWindow:
    def test_activation(self):
        assert correction_active(0.2 * pi)
        assert correction_active(0.8 * pi)
        assert not correction_active(0.35 * pi)
        assert not correction_active(0.65 * pi)


class TestReferenceIntegrals:
    def test_gaussian_closed_form(self):
        rows = [r for r in verify_multiple_integrals(4) if r["kind"] == "gaussian"]
        assert [r["n"] for r in rows] == [1, 2, 3, 4]
        for r in rows:
            assert r["rel_diff"] < 1e-8, r

    def test_exponential_matches_product(self):
        rows = [r for r in verify_multiple_integrals(4) if r["kind"] == "exponential"]
        for r in rows:
            assert r["matches_product"], r
        # the squared closed form disagrees beyond n=1
        assert not any(r["matches_square"] for r in rows if r["n"] >= 2)

    def test_n2_value(self):
        rows = verify_multiple_integrals(2)
        exp2 = [r for r in rows if r["kind"] == "exponential" and r["n"] == 2][0]
        assert abs(exp2["computed"] - 2.0) < 1e-10
