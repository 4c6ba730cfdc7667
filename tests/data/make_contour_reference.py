"""Write contour_reference.json: lhs and rhs of the contour identities that
tests/test_contours.py evaluates with small compactifications and at n=3.

    PYTHONPATH=src python3 tests/data/make_contour_reference.py

The cases are the n=2 `TestIdentityN2::test_small_compactification` and the
four n=3 evaluations of `TestIdentityN3`. As with n2_quick_reference.json, the
values are the program's own, kept so that a change to the pair sums can be
checked against the numbers the code gave before it. Rerun this only on a
tree whose pair sums are trusted.
"""
from __future__ import annotations

import json
from math import pi
from pathlib import Path

from xxzchain.contours import TestFunctionJ, eval_identity_n2, eval_identity_n3

OUT = Path(__file__).with_name("contour_reference.json")

# (name, evaluator, n, v, zeta / pi, keyword arguments)
CASES = (
    ("n2_small_compactification", eval_identity_n2, 2, 1.5, 0.35,
     {"A": 3.5, "levels": 2, "separation": 0.02}),
    ("n3_correction_absent_v1.5", eval_identity_n3, 3, 1.5, 0.35, {}),
    ("n3_correction_absent_v0.5", eval_identity_n3, 3, 0.5, 0.35, {}),
    ("n3_correction_branch", eval_identity_n3, 3, 0.5, 0.2, {}),
    ("n3_small_compactification", eval_identity_n3, 3, 1.5, 0.35,
     {"A": 3.5, "levels": 2, "separation": 0.02}),
)


def main():
    rows = {}
    for name, evaluate, n, v, zeta_over_pi, kwargs in CASES:
        rep = evaluate(TestFunctionJ(n, (2.0 + 1.5j,)), v, zeta_over_pi * pi, **kwargs)
        rows[name] = {
            "lhs": [rep["lhs"].real, rep["lhs"].imag],
            "rhs": [rep["rhs"].real, rep["rhs"].imag],
        }
    OUT.write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    main()
