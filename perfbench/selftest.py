"""Each output check accepts a correct output and rejects a perturbed one.

    python3 perfbench/selftest.py

Needs numpy only; the program is not run.
"""
from __future__ import annotations

import copy
import math
import os
import sys
import unittest
from math import pi

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402

# `xxz solve --zeta 0.5365pi --q 0.2` (order 128)
RECORDED_SOLVE = {"zeta": 0.5365 * pi, "q": 0.2, "h": 3.3043232500788364,
                  "p_F": 0.35337918734086937, "v_F": 1.3459127348243545,
                  "v_inf": 3.8760175912609149, "D": 0.11248408890219258}


def strings_rows(zeta, rmax=8):
    regime = "product-conditions" if zeta > pi / 2 else "floor-conditions"
    rows = [{"r": 1, "exists": True, "sigma": None, "line_im": None,
             "sgn_p_prime": None, "regime": regime}]
    for r in range(2, rmax + 1):
        exists, sigma, sgn = checks.string_reference(r, zeta)
        rows.append({"r": r, "exists": exists, "sigma": sigma,
                     "line_im": sigma * pi / 2 if exists else None,
                     "sgn_p_prime": sgn, "regime": regime})
    return rows


def exponent_rows(z_q=1.03, bound=2):
    """A consistent space-like table (kappa = +1): the conformal tower plus
    one row with a real-line particle."""
    rows = []
    for ell in range(-bound, bound + 1):
        d = -ell * z_q
        rows.append({"ell_plus": ell, "ell_minus": -ell, "n0": 0, "n1": 0,
                     "strings": [], "s_gamma": 0, "delta_plus": d,
                     "delta_minus": d, "delta_sp": 0.0, "total_exponent": 2 * d * d})
    rows.append({"ell_plus": 0, "ell_minus": -1, "n0": 1, "n1": 0,
                 "strings": [[2, [0]]], "s_gamma": 0, "delta_plus": 0.3,
                 "delta_minus": -0.2, "delta_sp": 0.5,
                 "total_exponent": 0.09 + 0.04 + 0.5})
    return sorted(rows, key=lambda row: row["total_exponent"])


class Checks(unittest.TestCase):
    def assert_rejects(self, errs):
        self.assertTrue(errs, "perturbed output was accepted")

    def test_free_fermion(self):
        h = 2.0
        out = dict(checks.free_fermion(h), zeta=pi / 2, h=h)
        self.assertEqual(checks.check_free_fermion(out, h), [])
        self.assertEqual(checks.check_ground_state(out, pi / 2, h), [])
        for key in ("q", "p_F", "v_F", "v_inf", "Z_q", "D"):
            bad = dict(out, **{key: out[key] * (1 + 1e-9)})
            self.assert_rejects(checks.check_free_fermion(bad, h))
        self.assert_rejects(checks.check_free_fermion({"q": out["q"]}, h))

    def test_ground_state(self):
        out = RECORDED_SOLVE
        self.assertEqual(checks.check_ground_state(out, out["zeta"], None), [])
        self.assert_rejects(checks.check_ground_state(dict(out, D=out["D"] + 1e-9), out["zeta"], None))
        self.assert_rejects(checks.check_ground_state(out, out["zeta"] + 1e-12, None))
        self.assert_rejects(checks.check_ground_state(dict(out, h=1.0), out["zeta"], 1.5))

    def test_bethe(self):
        out, h = RECORDED_SOLVE, RECORDED_SOLVE["h"]
        self.assertEqual(checks.check_bethe(out, out["zeta"], h), [])
        velocities = {k: out[k] for k in ("zeta", "q", "p_F", "v_F", "v_inf")}
        self.assertEqual(checks.check_bethe(velocities, out["zeta"], h), [])
        for key, delta in (("q", 1e-3), ("D", 1e-4), ("v_F", 1e-5)):
            self.assert_rejects(checks.check_bethe(dict(out, **{key: out[key] + delta}),
                                                   out["zeta"], h))
        self.assert_rejects(checks.check_bethe(dict(velocities, p_F=out["p_F"] + 1e-4),
                                               out["zeta"], h))
        # a field off by 1e-5: the q, D and v_F of another h
        self.assert_rejects(checks.check_bethe(out, out["zeta"], h * (1 + 1e-5)))

    def test_bethe_free_fermion(self):
        h = 1.0
        ff = checks.free_fermion(h)
        chain = checks.bethe_chain(pi / 2, ff["D"])
        for key, want in (("q", ff["q"]), ("h", h), ("v_F", ff["v_F"])):
            self.assertLess(abs(chain[key] - want), 1e-6, key)

    def test_strings(self):
        for zeta in (0.35 * pi, 0.55 * pi, 0.62 * pi):
            rows = strings_rows(zeta)
            self.assertEqual(checks.check_strings(rows, zeta, 8), [])
            for r in range(2, 9):
                for key, value in (("exists", not rows[r - 1]["exists"]),
                                   ("sigma", 1 - (rows[r - 1]["sigma"] or 0)),
                                   ("sgn_p_prime", -(rows[r - 1]["sgn_p_prime"] or 1)),
                                   ("line_im", 1.0)):
                    bad = copy.deepcopy(rows)
                    bad[r - 1][key] = value
                    self.assert_rejects(checks.check_strings(bad, zeta, 8))
            self.assert_rejects(checks.check_strings(rows[:-1], zeta, 8))
            bad = copy.deepcopy(rows)
            bad[0]["exists"] = False
            self.assert_rejects(checks.check_strings(bad, zeta, 8))

    def test_exponents(self):
        z_q, v, v_f = 1.03, 3.0, 1.5
        rows = exponent_rows(z_q)
        self.assertEqual(checks.check_exponents(rows, v, v_f, z_q, 2), [])
        self.assert_rejects(checks.check_exponents(rows[::-1], v, v_f, z_q, 2))
        self.assert_rejects(checks.check_exponents(rows, 1.0, v_f, z_q, 2))  # kappa = -1
        self.assert_rejects(checks.check_exponents(rows, v, v_f, z_q * (1 + 1e-9), 2))
        self.assert_rejects(checks.check_exponents(rows[1:], v, v_f, z_q, 2))
        self.assert_rejects(checks.check_exponents([], v, v_f, z_q, 2))
        for i in range(len(rows)):
            for key, delta in (("total_exponent", 1e-9), ("delta_sp", 1e-9),
                               ("delta_plus", 1e-9), ("ell_plus", 1), ("s_gamma", 1)):
                bad = copy.deepcopy(rows)
                bad[i][key] += delta
                self.assert_rejects(checks.check_exponents(bad, v, v_f, z_q, 2))
        # a consistent table for spin 1, where spin 0 was requested
        bad = copy.deepcopy(rows)
        for row in bad:
            row["ell_plus"] += 1
            row["s_gamma"] = 1
        self.assert_rejects(checks.check_exponents(bad, v, v_f, z_q, 2))

    def test_identity(self):
        zeta, v = 0.35 * pi, 0.5
        rep = {"identity": "n2", "rel_diff": 1e-10,
               "params": {"zeta": zeta, "v": v, "label": "w1"}}
        self.assertEqual(checks.check_identity(rep, zeta, v, "w1"), [])
        self.assert_rejects(checks.check_identity(dict(rep, rel_diff=2e-6), zeta, v, "w1"))
        self.assert_rejects(checks.check_identity(dict(rep, rel_diff=math.nan), zeta, v, "w1"))
        self.assert_rejects(checks.check_identity(rep, zeta, -v, "w1"))
        self.assert_rejects(checks.check_identity(rep, zeta, v, "w2"))
        self.assert_rejects(checks.check_identity(dict(rep, identity="n3"), zeta, v, "w1"))

    def test_vandermonde(self):
        self.assertEqual([checks.barnes_g(n) for n in range(1, 7)], [1, 1, 1, 2, 12, 288])
        rows = []
        for n in range(1, 5):
            rows.append({"kind": "gaussian", "n": n, "computed":
                         0.5 ** (n * n / 2) * (2 * pi) ** (n / 2) * checks.barnes_g(n + 2)})
            rows.append({"kind": "exponential", "n": n,
                         "computed": float(checks.barnes_g(n + 1) * checks.barnes_g(n + 2))})
        self.assertEqual(checks.check_vandermonde(rows), [])
        self.assertAlmostEqual(rows[2]["computed"], pi, places=14)  # Gaussian n = 2
        for i in range(len(rows)):
            bad = copy.deepcopy(rows)
            bad[i]["computed"] *= 1 + 1e-6
            self.assert_rejects(checks.check_vandermonde(bad))
        self.assert_rejects(checks.check_vandermonde(rows[2:]))


if __name__ == "__main__":
    unittest.main()
