import math
from math import pi

import numpy as np
import pytest

from xxzchain.dressed import ModelParams, solve_dressed_set
from xxzchain.errors import (
    DegenerateAnisotropyError,
    InvalidStringError,
    RegimeMismatchError,
    SignInconsistencyError,
    ValidationError,
)
from xxzchain.strings import (
    REFERENCE_TABLE,
    StringSpec,
    catalog,
    check_condition_equivalence,
    momentum_sign,
    reference_diff,
    reference_lookup,
    string_exists,
)

RNG = np.random.default_rng(20240818)


def _interior_samples(lo, hi, n=3):
    return [lo + (hi - lo) * f for f in (0.21, 0.52, 0.83)][:n]


class TestExistenceTables:
    @pytest.mark.parametrize("r", sorted(REFERENCE_TABLE))
    def test_listed_intervals(self, r):
        for lo, hi, sigma, _ in REFERENCE_TABLE[r]:
            for zeta in _interior_samples(lo, hi):
                spec = string_exists(r, zeta)
                assert spec.exists, (r, zeta / pi)
                assert spec.sigma_r == sigma, (r, zeta / pi)

    @pytest.mark.parametrize("r", sorted(REFERENCE_TABLE))
    def test_gaps_do_not_exist(self, r):
        rows = REFERENCE_TABLE[r]
        los = [row[0] for row in rows]
        his = [row[1] for row in rows]
        for a, b in zip([0.0] + his, los + [pi]):
            if b - a < 1e-9:
                continue
            for zeta in _interior_samples(a, b):
                if abs(zeta - pi / 2) < 1e-9:
                    continue
                assert not string_exists(r, zeta).exists, (r, zeta / pi)

    def test_two_string_always_exists_parity_zero(self):
        for zeta in [0.07 * pi, 0.31 * pi, 0.7 * pi, 0.93 * pi]:
            spec = string_exists(2, zeta)
            assert spec.exists and spec.sigma_r == 0

    def test_spec_examples(self):
        assert string_exists(2, 0.7 * pi).sigma_r == 0
        s3 = string_exists(3, 0.6 * pi)
        assert s3.exists and s3.sigma_r == 1 and abs(s3.line_im - pi / 2) < 1e-15
        assert not string_exists(4, 0.45 * pi).exists

    def test_one_string(self):
        spec = string_exists(1, 0.37 * pi)
        assert spec.exists and spec.sigma_r is None

    def test_validation(self):
        with pytest.raises(ValidationError):
            string_exists(0, 0.3 * pi)
        with pytest.raises(ValidationError):
            string_exists(2, 1.5 * pi)


class TestRegimeBoundary:
    def test_even_string_agrees_at_half_pi(self):
        spec = string_exists(2, pi / 2)
        assert spec.exists and spec.sigma_r == 0 and spec.regime == "boundary"

    def test_odd_string_parity_flip_reported(self):
        with pytest.raises(RegimeMismatchError):
            string_exists(3, pi / 2)

    def test_degenerate_anisotropy(self):
        # sin(3 zeta) = 0 at zeta = 2 pi / 3 enters the r=4 conditions
        with pytest.raises(DegenerateAnisotropyError):
            string_exists(4, 2 * pi / 3)


class TestConditionEquivalence:
    def test_spec_examples(self):
        assert check_condition_equivalence(0.3 * pi, 3)
        assert check_condition_equivalence(0.45 * pi, 5)
        for r in range(2, 9):
            assert check_condition_equivalence(0.1065 * pi, r)

    def test_fifty_point_sweep(self):
        counterexamples = []
        for r in range(2, 9):
            for zeta in np.linspace(0.013, 0.487, 50) * pi:
                try:
                    if not check_condition_equivalence(float(zeta), r):
                        counterexamples.append((r, float(zeta) / pi))
                except DegenerateAnisotropyError:
                    continue
        assert counterexamples == [], counterexamples

    def test_domain(self):
        with pytest.raises(ValidationError):
            check_condition_equivalence(0.7 * pi, 3)


@pytest.fixture(scope="module")
def ds_05365():
    return solve_dressed_set(ModelParams(J=1.0, zeta=0.5365 * pi, q=0.2))


@pytest.fixture(scope="module")
def ds_01065():
    return solve_dressed_set(ModelParams(J=1.0, zeta=0.1065 * pi, q=0.2))


class TestMomentumSign:
    def test_spec_examples(self):
        ds = solve_dressed_set(ModelParams(J=1.0, zeta=0.3 * pi, q=0.2))
        assert momentum_sign(2, ds) == 1
        ds = solve_dressed_set(ModelParams(J=1.0, zeta=0.4 * pi, q=0.2))
        assert momentum_sign(3, ds) == -1
        ds = solve_dressed_set(ModelParams(J=1.0, zeta=0.78 * pi, q=0.2))
        expected = -(1 if math.sin(5 * 0.78 * pi) > 0 else -1)
        assert momentum_sign(5, ds) == expected

    @pytest.mark.parametrize("r", sorted(REFERENCE_TABLE))
    def test_table_signs_one_point_per_interval(self, r):
        for lo, hi, _, _ in REFERENCE_TABLE[r]:
            zeta = lo + 0.47 * (hi - lo)
            ds = solve_dressed_set(ModelParams(J=1.0, zeta=zeta, q=0.2))
            _, _, expected = reference_lookup(r, zeta)
            assert momentum_sign(r, ds) == expected, (r, zeta / pi)

    def test_two_string_random_sweep(self):
        for zeta in RNG.uniform(0.03, 0.97, 20) * pi:
            if abs(zeta - pi / 2) < 2e-2:
                continue
            ds = solve_dressed_set(ModelParams(J=1.0, zeta=float(zeta), q=0.15))
            assert momentum_sign(2, ds) == (1 if math.sin(2 * zeta) > 0 else -1)

    def test_samples_in_one_call_each_checked_for_reality(self):
        class Stub:
            zeta = 0.3 * pi

            def __init__(self, imag):
                self.imag, self.shapes = imag, []

            def p_r_d(self, lam, r=1, k=1):
                self.shapes.append(np.shape(lam))
                lam = np.asarray(lam)
                return np.ones(lam.shape) + 1j * self.imag * (lam.real == 1.53)

        ds = Stub(0.0)
        assert momentum_sign(2, ds) == 1
        assert ds.shapes == [(5,)]
        with pytest.raises(SignInconsistencyError, match="not real on carrier line.*x=1.53"):
            momentum_sign(2, Stub(1e-3))

    def test_nonexistent_string_rejected(self, ds_05365):
        with pytest.raises(InvalidStringError):
            momentum_sign(4, ds_05365)


class TestCatalog:
    def test_rmax_one(self):
        specs = catalog(0.3 * pi, 1)
        assert len(specs) == 1 and specs[0].r == 1

    def test_figure_set_05365(self, ds_05365):
        specs = {s.r: s for s in catalog(0.5365 * pi, 8, ds=ds_05365)}
        expected = {2: 0, 3: 1, 5: 0, 7: 1}
        for r in range(2, 9):
            if r in expected:
                assert specs[r].exists and specs[r].sigma_r == expected[r]
            else:
                assert not specs[r].exists

    def test_figure_set_01065(self, ds_01065):
        specs = {s.r: s for s in catalog(0.1065 * pi, 8, ds=ds_01065)}
        for r in range(2, 9):
            assert specs[r].exists and specs[r].sigma_r == 0

    def test_reference_diff_all_agree(self, ds_05365):
        rows = reference_diff(0.5365 * pi, 8, ds=ds_05365)
        assert len(rows) == 7
        assert all(row["agree"] for row in rows)


class TestStringSpecType:
    def test_frozen(self):
        spec = StringSpec(2, True, 0, 0.0, 1, "product-conditions")
        with pytest.raises(Exception):
            spec.exists = False
