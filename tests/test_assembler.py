import collections
import dataclasses
import itertools
import math
import time
from math import pi

import pytest

from xxzchain.assembler import (
    AsymptoticTerm,
    RapiditySet,
    _count_vectors,
    assemble_term,
    conformal_exponent,
    conformal_rapidity_set,
    enumerate_configs,
    excitation_energy_momentum,
    make_config,
    rank_terms,
    saddle_rapidity_set,
    shift_exponent,
    theta_upsilon,
)
from xxzchain.dressed import DressedSet, ModelParams, solve_dressed_set
from xxzchain.errors import RegimeMismatchError, ValidationError
from xxzchain.kernels import bare_phase, string_combinatorics
from xxzchain.saddles import classify_structure, fermi_velocity, u_r, v_infinity
from xxzchain.strings import catalog


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


@pytest.fixture(scope="module")
def ds_05365(sets):
    return sets[(0.5365, 0.2)]


@pytest.fixture(scope="module")
def timelike_05365(ds_05365):
    v = 0.5 * fermi_velocity(ds_05365)
    return v, classify_structure(v, ds_05365, r_max=5)


class TestConformalClosure:
    def test_closure_three_sets(self, sets):
        for ds in sets.values():
            for ell in (-2, -1, 0, 1, 2):
                for s_gamma in (-1, 0, 1):
                    Y = conformal_rapidity_set(ell, s_gamma)
                    for upsilon in (1, -1):
                        got = theta_upsilon(Y, upsilon, ds)
                        want = conformal_exponent(ell, s_gamma, upsilon, ds)
                        assert abs(got - want) < 1e-8, (ell, s_gamma, upsilon)

    def test_unit_charge_case(self, ff):
        # Z = 1: the exponent degenerates to ell - upsilon*s/2
        for ell in (-1, 0, 2):
            for upsilon in (1, -1):
                got = theta_upsilon(conformal_rapidity_set(ell, 0), upsilon, ff)
                assert abs(got - ell) < 1e-9


class TestEnergyMomentum:
    def test_pure_umklapp(self, ds_05365):
        Y = RapiditySet(s_gamma=0, ell_plus=1, ell_minus=-1)
        E, P, U = excitation_energy_momentum(Y, 1.0, ds_05365)
        assert E == 0.0
        assert abs(P - 2 * ds_05365.p_F) < 1e-14
        assert abs(U - P) < 1e-14

    def test_spin_shift_in_momentum(self, ds_05365):
        Y = RapiditySet(s_gamma=1, ell_plus=1, ell_minus=0)
        E, P, U = excitation_energy_momentum(Y, 1.0, ds_05365)
        assert abs(P - ds_05365.p_F - pi) < 1e-14
        assert abs(U - (P - pi)) < 1e-14

    def test_hole_at_fermi_endpoint(self, ds_05365):
        Y = RapiditySet(s_gamma=0, ell_plus=0, ell_minus=0, holes=(ds_05365.q,))
        E, _, _ = excitation_energy_momentum(Y, 1.0, ds_05365)
        assert abs(E) < 1e-10

    def test_two_string_state_self_convergence(self):
        vals = []
        for order in (128, 256):
            ds = solve_dressed_set(
                ModelParams(J=1.0, zeta=0.5365 * pi, q=0.2, order=order)
            )
            Y = RapiditySet(
                s_gamma=0, ell_plus=-2, ell_minus=0, strings=((2, (0.0j,)),)
            )
            E, P, U = excitation_energy_momentum(Y, 1.7, ds)
            assert abs(E - ds.eps_r(0.0j, 2).real) < 1e-12
            vals.append((E, P))
        assert abs(vals[0][0] - vals[1][0]) < 1e-9
        assert abs(vals[0][1] - vals[1][1]) < 1e-9

    def test_u_identity(self, ds_05365):
        Y = RapiditySet(
            s_gamma=1, ell_plus=1, ell_minus=0, holes=(0.1,), particles=(0.7,)
        )
        v = 2.3
        E, P, U = excitation_energy_momentum(Y, v, ds_05365)
        assert abs(U - (P - E / v - pi)) < 1e-12

    def test_zero_velocity_rejected(self, ds_05365):
        with pytest.raises(ValidationError):
            excitation_energy_momentum(RapiditySet(0, 0, 0), 0.0, ds_05365)

    def test_off_domain_rapidity(self, ds_05365):
        Y = RapiditySet(s_gamma=0, ell_plus=0, ell_minus=0, holes=(0.1 + 0.3j,))
        with pytest.raises(ValidationError):
            excitation_energy_momentum(Y, 1.0, ds_05365)
        Y = RapiditySet(
            s_gamma=0, ell_plus=0, ell_minus=0, strings=((2, (0.3 + 0.2j,)),)
        )
        with pytest.raises(ValidationError):
            excitation_energy_momentum(Y, 1.0, ds_05365)


class TestShiftExponent:
    def test_empty_state_vanishes(self, ds_05365):
        Y = RapiditySet(s_gamma=0, ell_plus=0, ell_minus=0)
        assert shift_exponent(0.13, Y, ds_05365) == 0.0

    def test_linearity_in_counts(self, ds_05365):
        single = RapiditySet(s_gamma=0, ell_plus=0, ell_minus=0, holes=(0.08,))
        double = RapiditySet(s_gamma=0, ell_plus=0, ell_minus=0, holes=(0.08, 0.08))
        a = shift_exponent(0.02, single, ds_05365)
        b = shift_exponent(0.02, double, ds_05365)
        assert abs(b - 2 * a) < 1e-12

    def test_string_term_sign(self, ds_05365):
        # particles and strings enter with the opposite sign of holes
        hole = RapiditySet(s_gamma=0, ell_plus=0, ell_minus=0, holes=(0.05,))
        part = RapiditySet(s_gamma=0, ell_plus=0, ell_minus=0, particles=(0.05,))
        a = shift_exponent(0.11, hole, ds_05365)
        b = shift_exponent(0.11, part, ds_05365)
        assert abs(a + b) < 1e-12

    def test_invalid_upsilon(self, ds_05365):
        with pytest.raises(ValidationError):
            theta_upsilon(RapiditySet(0, 0, 0), 2, ds_05365)


class TestEnumerate:
    def test_conformal_bound_one(self):
        cfgs = enumerate_configs(0, "conformal", 1, [])
        pairs = sorted((c.ell_plus, c.ell_minus) for c in cfgs)
        assert pairs == [(-1, 1), (0, 0), (1, -1)]
        assert all(c.massive_total() == 0 for c in cfgs)

    def test_time_like_bound_one(self, ds_05365):
        cat = catalog(0.5365 * pi, 5, ds=ds_05365)
        cfgs = enumerate_configs(0, "time-like", 1, cat)
        keys = {(c.ell_plus, c.ell_minus, c.n0, c.n1, c.n_r) for c in cfgs}
        assert (0, 0, 0, 0, ()) in keys
        assert (0, 0, 1, 1, ()) in keys
        assert (1, -1, 0, 0, ()) in keys
        for c in cfgs:
            assert c.spin_sum(-1) == 0

    def test_space_like_spin_constraint(self, ds_05365):
        cat = catalog(0.5365 * pi, 5, ds=ds_05365)
        cfgs = enumerate_configs(-1, "space-like", 2, cat)
        assert cfgs
        for c in cfgs:
            assert c.spin_sum(1) == -1

    def test_deterministic(self, ds_05365):
        cat = catalog(0.5365 * pi, 5, ds=ds_05365)
        a = enumerate_configs(0, "time-like", 2, cat)
        b = enumerate_configs(0, "time-like", 2, cat)
        assert a == b
        assert [c.sort_key() for c in a] == sorted(c.sort_key() for c in a)

    def test_general_uses_structure(self, timelike_05365, ds_05365):
        _, structure = timelike_05365
        cfgs = enumerate_configs(0, "general", 1, None, structure)
        assert any(c.n_r for c in cfgs)
        for c in cfgs:
            assert c.spin_sum(-1) == 0

    def test_validation(self):
        with pytest.raises(ValidationError):
            enumerate_configs(0, "nope", 1, [])
        with pytest.raises(ValidationError):
            enumerate_configs(0, "conformal", 0, [])
        with pytest.raises(ValidationError):
            enumerate_configs(0, "general", 1, [], None)


class TestCountVectors:
    @pytest.mark.parametrize("nslots", range(6))
    def test_matches_filtered_product(self, nslots):
        for cap in range(-1, 4):
            want = [
                c for c in itertools.product(range(cap + 1), repeat=nslots)
                if sum(c) <= cap
            ]
            assert list(_count_vectors(nslots, cap)) == want

    def test_many_slots_bounded(self):
        # 19 slots at cap 2: C(21, 2) = 210 vectors, where the product walk
        # would visit 3^19 ~ 1.2e9
        t0 = time.perf_counter()
        got = list(_count_vectors(19, 2))
        assert time.perf_counter() - t0 < 1.0
        assert len(got) == 210 == math.comb(21, 2)
        assert len(set(got)) == 210 and all(sum(c) <= 2 for c in got)


class TestAssemble:
    def test_empty_config(self, ds_05365, timelike_05365):
        v, structure = timelike_05365
        term = assemble_term(make_config(0, 0), v, ds_05365, structure)
        assert term.C_n == 1.0
        assert term.delta_sp == 0.0
        assert term.phase == 0.0
        assert term.wavevector == 0.0

    def test_delta_sp_formula(self, ds_05365, timelike_05365):
        v, structure = timelike_05365
        cfg = make_config(-2, -2, n0=2, n1=1, strings={2: 1, 3: 1})
        # spin: -2 - 2 - 2 + 1 + 2 + 3 = 0
        term = assemble_term(cfg, v, ds_05365, structure)
        assert term.delta_sp == 0.5 * (4 + 1 + 1 + 1)

    def test_phase_linearity(self, ds_05365, timelike_05365):
        v, structure = timelike_05365
        c1 = make_config(-1, -1, n0=1, n1=1, strings={2: 1})
        c2 = make_config(-2, -2, n0=2, n1=2, strings={2: 2})
        t1 = assemble_term(c1, v, ds_05365, structure)
        t2 = assemble_term(c2, v, ds_05365, structure)
        assert abs(t2.phase - 2 * t1.phase) < 1e-12 * max(1.0, abs(t1.phase))

    def test_free_fermion_hole_term(self, ff):
        v = 2.0
        structure = classify_structure(v, ff, r_max=2)
        term = assemble_term(make_config(1, 0, n0=1), v, ff, structure)
        omega0 = 0.5 * math.atanh(v / 4)

        def phi_ff(lam, mu):
            sc = string_combinatorics(1, pi / 2)
            return bare_phase(lam - mu, 1, pi / 2) / (2 * pi) + sc.m_r / 2

        q = ff.q
        for upsilon, got in ((1, term.delta_plus), (-1, term.delta_minus)):
            ell_u = 1 if upsilon == 1 else 0
            want = (
                -upsilon * ell_u
                + phi_ff(upsilon * q, omega0)
                - 1 * phi_ff(upsilon * q, q)
            )
            assert abs(got - want) < 1e-10, upsilon
        u_val = math.atan(math.sinh(2 * omega0)) - (
            2 - 4 / math.cosh(2 * omega0)
        ) / v
        assert abs(term.phase + u_val) < 1e-10

    def test_curvature_amplitude_oracle(self, ff):
        v = 2.0
        structure = classify_structure(v, ff, r_max=2)
        term = assemble_term(make_config(1, 0, n0=1), v, ff, structure)
        omega0 = 0.5 * math.atanh(v / 4)
        h = 1e-4
        u2 = (
            complex(u_r(omega0 + h, v, 1, ff))
            - 2 * complex(u_r(omega0, v, 1, ff))
            + complex(u_r(omega0 - h, v, 1, ff))
        ) / h**2
        want = 1.0 / math.sqrt(2 * pi * abs(u2))
        assert abs(abs(term.C_n) - want) < 1e-6

    def test_placeholder_rapidities(self, ds_05365, timelike_05365):
        v, structure = timelike_05365
        cfg = make_config(-1, -1, n0=1, n1=1, strings={2: 1})
        Y = saddle_rapidity_set(cfg, structure)
        assert len(Y.holes) == 1 and abs(Y.holes[0]) < ds_05365.q
        assert len(Y.particles) == 1
        assert abs(Y.particles[0].imag - pi / 2) < 1e-12
        term = assemble_term(cfg, v, ds_05365, structure)
        assert term.amplitude_placeholder == Y
        E, P, U = excitation_energy_momentum(Y, v, ds_05365)
        assert math.isfinite(E) and math.isfinite(P)

    def test_spin_constraint_enforced(self, ds_05365, timelike_05365):
        v, structure = timelike_05365
        with pytest.raises(ValidationError):
            assemble_term(make_config(1, 0, n0=0), v, ds_05365, structure)

    def test_missing_saddle_is_regime_mismatch(self, ds_05365):
        vinf = v_infinity(ds_05365)
        v = 1.5 * vinf
        structure = classify_structure(v, ds_05365, r_max=3)
        with pytest.raises(RegimeMismatchError):
            assemble_term(make_config(-1, 0, n0=1), v, ds_05365, structure)
        with pytest.raises(RegimeMismatchError):
            assemble_term(
                make_config(-2, 0, strings={2: 1}), v, ds_05365, structure
            )

    def test_massive_without_structure(self, ds_05365):
        with pytest.raises(RegimeMismatchError):
            assemble_term(make_config(1, 0, n0=1), 1.0, ds_05365, None)

    def test_wrong_velocity_structure(self, ds_05365, timelike_05365):
        v, structure = timelike_05365
        with pytest.raises(ValidationError):
            assemble_term(make_config(0, 0), 2 * v, ds_05365, structure)


class TestSaddleMemo:
    """assemble_term evaluates each saddle quantity once per solved set."""

    POINT = dict(J=1.0, zeta=0.4204 * pi, q=0.45, order=32)
    V = 3.0

    def _table(self, ds):
        structure = classify_structure(self.V, ds, r_max=2)
        cat = catalog(ds.zeta, 2, ds=ds)
        return structure, enumerate_configs(0, "general", 2, cat, structure=structure)

    def test_shared_set_matches_fresh_sets_bitwise(self):
        ds = solve_dressed_set(ModelParams(**self.POINT))
        structure, configs = self._table(ds)
        assert len(configs) > 50
        shared = [assemble_term(c, self.V, ds, structure) for c in configs]
        for cfg, term in zip(configs, shared):
            fresh = assemble_term(
                cfg, self.V, solve_dressed_set(ModelParams(**self.POINT)), structure
            )
            for f in dataclasses.fields(AsymptoticTerm):
                a, b = getattr(term, f.name), getattr(fresh, f.name)
                assert repr(a) == repr(b), (cfg, f.name, a, b)

    def test_one_evaluation_per_distinct_input(self, monkeypatch):
        ds = solve_dressed_set(ModelParams(**self.POINT))
        structure, configs = self._table(ds)
        calls = {name: collections.Counter() for name in ("phi", "p_r_d", "p_r")}

        def counting(name, key):
            original = getattr(DressedSet, name)

            def wrapper(self, *args):
                calls[name][key(*args)] += 1
                return original(self, *args)

            monkeypatch.setattr(DressedSet, name, wrapper)

        counting("phi", lambda r, lam, mu: (r, lam, complex(mu)))
        counting("p_r_d", lambda lam, r: (r, complex(lam)))
        counting("p_r", lambda lam, r: (r, complex(lam)))
        for cfg in configs:
            assemble_term(cfg, self.V, ds, structure)
        for name, counter in calls.items():
            assert counter and set(counter.values()) == {1}, (name, counter)
        # phi at both Fermi boundaries for every saddle and for +-q
        assert {lam for _, lam, _ in calls["phi"]} == {ds.q, -ds.q}

    def test_failure_is_not_memoized(self, ff):
        # zeta = pi/2: the r = 1 saddle on Im = pi/2 sits at hat-reduction
        # pi/2, where u_r raises; every assembly that needs it must raise
        structure = classify_structure(2.0, ff, r_max=1)
        cfg = make_config(-1, 0, n1=1)
        for _ in range(2):
            with pytest.raises(ValidationError, match="hat reduction"):
                assemble_term(cfg, 2.0, ff, structure)


class TestRank:
    def test_conformal_order_unit_charge(self, ff):
        terms = [
            assemble_term(cfg, 10.0, ff, None)
            for cfg in enumerate_configs(0, "conformal", 1, [])
        ]
        ranked = rank_terms(terms)
        exps = [t.total_exponent for t in ranked]
        assert abs(exps[0]) < 1e-12
        assert abs(exps[1] - 2.0) < 1e-9 and abs(exps[2] - 2.0) < 1e-9

    def test_single_term(self, ff):
        term = assemble_term(make_config(0, 0), 10.0, ff, None)
        assert rank_terms([term]) == [term]

    def test_time_like_bound_one_order(self, ds_05365, timelike_05365):
        v, structure = timelike_05365
        cat = catalog(0.5365 * pi, 5, ds=ds_05365)
        terms = [
            assemble_term(cfg, v, ds_05365, structure)
            for cfg in enumerate_configs(0, "time-like", 1, cat)
        ]
        ranked = rank_terms(terms)
        exps = [t.total_exponent for t in ranked]
        assert exps == sorted(exps)
        assert ranked[0].config == make_config(0, 0)
        assert all(isinstance(t, AsymptoticTerm) for t in ranked)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            rank_terms([])
