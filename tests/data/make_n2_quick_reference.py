"""Write n2_quick_reference.json: lhs and rhs of the n=2 deformation identity
at the 18 configurations of `xxz verify --suite quick`.

    PYTHONPATH=src python3 tests/data/make_n2_quick_reference.py

The values are the program's own, kept so that a change to the pair-weight
sums can be checked against the numbers the code gave before it. Rerun this
only on a tree whose n=2 sums are trusted.
"""
from __future__ import annotations

import json
from math import pi
from pathlib import Path

from xxzchain.contours import eval_identity_n2, standard_test_functions

OUT = Path(__file__).with_name("n2_quick_reference.json")


def main():
    rows = []
    for zeta_over_pi in (0.35, 0.65):
        for v in (1.5, 0.5, -0.5):
            for J in standard_test_functions(2):
                rep = eval_identity_n2(J, v, zeta_over_pi * pi)
                rows.append(
                    {
                        "zeta_over_pi": zeta_over_pi,
                        "v": v,
                        "label": J.label,
                        "lhs": [rep["lhs"].real, rep["lhs"].imag],
                        "rhs": [rep["rhs"].real, rep["rhs"].imag],
                    }
                )
    OUT.write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    main()
